package croupier

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/addr"
	"repro/internal/intern"
	"repro/internal/sim"
	"repro/internal/stats"
)

// checkStore verifies the dense layout's invariants at the store's
// current round: the index and the dense array map one-to-one (with
// matching birth rounds), the index is at most 3/4 full, the expired
// entries are counted exactly and are at most a quarter of the live
// ones, and the cohort ring counts exactly the live entries held.
func checkStore(s *estimateStore) error {
	held := 0
	for slot, x := range s.index {
		if x.ref == 0 {
			continue
		}
		held++
		if x.pos < 0 || int(x.pos) >= len(s.entries) || s.entries[x.pos].origin != x.ref || s.entries[x.pos].birth != x.birth {
			return fmt.Errorf("index slot %d %+v names no matching entry", slot, x)
		}
	}
	if held != len(s.entries) {
		return fmt.Errorf("index holds %d references for %d entries", held, len(s.entries))
	}
	if held*4 > len(s.index)*3 {
		return fmt.Errorf("index %d/%d is over 3/4 full", held, len(s.index))
	}
	births := make(map[int]int32)
	dead := 0
	for p, e := range s.entries {
		if e.origin == 0 {
			return fmt.Errorf("entry %d has no origin", p)
		}
		if slot, ok := s.probe(e.origin); !ok || s.index[slot].pos != int32(p) {
			return fmt.Errorf("entry %d (ref %d) is not indexed at its position", p, e.origin)
		}
		if !s.liveAt(e.birth) {
			dead++
			continue
		}
		births[int(e.birth)]++
	}
	if dead != s.dead || 4*dead > s.len() {
		return fmt.Errorf("array holds %d expired entries, counted %d, for %d live", dead, s.dead, s.len())
	}
	for b, c := range births {
		if *s.cohortPtr(b) != c {
			return fmt.Errorf("cohort %d counts %d, array holds %d", b, *s.cohortPtr(b), c)
		}
	}
	counted := 0
	for _, c := range s.cohorts {
		counted += int(c)
	}
	if counted != s.len() {
		return fmt.Errorf("cohort ring counts %d live entries, array holds %d", counted, s.len())
	}
	return nil
}

// snapshot lists a store's live entries as (origin, value, age) sorted
// by origin, resolving references through its interner.
func snapshot(s *estimateStore) []Estimate {
	out := s.appendLive(nil, s.round)
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// Property: under any interleaving of single merges, message merges,
// round boundaries and interner compactions, the store holds one live
// entry per origin, the index and the dense array map one-to-one, and
// compaction preserves the (origin, value, age) multiset and sum().
func TestEstimateStoreInvariants(t *testing.T) {
	f := func(ops []uint16) bool {
		s := newEstimateStore(20, intern.NewOrigins())
		rounds := 0
		var msg []Estimate
		for _, op := range ops {
			id := addr.NodeID(op%64 + 1)
			e := Estimate{Node: id, Value: float64(op) / 65535, Age: int(op>>6) % 24}
			switch op % 7 {
			case 0:
				// A round boundary: ages advance implicitly, old entries
				// expire.
				rounds += 1 + int(op>>10)%3
				s.expire(rounds)
			case 1:
				msg = append(msg, e)
				if len(msg) >= int(op>>8)%20+1 {
					s.merge(msg, 5, rounds)
					msg = msg[:0]
				}
			case 2:
				before, sum := snapshot(s), s.sum()
				s.compactOrigins()
				if err := checkStore(s); err != nil {
					t.Logf("after compaction: %v", err)
					return false
				}
				if after := snapshot(s); !reflect.DeepEqual(before, after) || s.sum() != sum {
					t.Logf("compaction changed the store: %v → %v", before, after)
					return false
				}
			default:
				s.mergeFresher(e, rounds)
			}
			if err := checkStore(s); err != nil {
				t.Log(err)
				return false
			}
			seen := make(map[addr.NodeID]bool)
			for _, x := range snapshot(s) {
				if seen[x.Node] {
					t.Logf("origin %v held twice", x.Node)
					return false
				}
				seen[x.Node] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestEstimateStoreBatchedMergeParity merges hostile-shaped messages —
// origins repeated within one message, the receiver's own estimate,
// over-age and zero-origin estimates, and messages longer than a merge
// batch — through merge into one store and one estimate at a time
// through mergeFresher into a twin. The two must stay identical down to
// array order, index layout, cohort counts and expired entries.
func TestEstimateStoreBatchedMergeParity(t *testing.T) {
	const self = addr.NodeID(3)
	rng := rand.New(rand.NewSource(7))
	batched := newEstimateStore(50, intern.NewOrigins())
	single := newEstimateStore(50, intern.NewOrigins())
	rounds := 0
	for step := 0; step < 2000; step++ {
		if rng.Intn(4) == 0 {
			rounds++
			batched.expire(rounds)
			single.expire(rounds)
		}
		msg := make([]Estimate, rng.Intn(3*mergeBatch+6))
		for i := range msg {
			msg[i] = Estimate{
				Node:  addr.NodeID(rng.Intn(40)), // 0 and self included
				Value: rng.Float64(),
				Age:   rng.Intn(56), // past γ now and then
			}
			if i > 0 && rng.Intn(4) == 0 {
				msg[i].Node = msg[rng.Intn(i)].Node // a repeated origin
			}
		}
		batched.merge(msg, self, rounds)
		for _, e := range msg {
			if e.Node != self {
				single.mergeFresher(e, rounds)
			}
		}
		if !slices.Equal(batched.entries, single.entries) ||
			!slices.Equal(batched.index, single.index) ||
			!slices.Equal(batched.cohorts, single.cohorts) ||
			batched.dead != single.dead ||
			batched.origins.Len() != single.origins.Len() {
			t.Fatalf("step %d: batched merge of %v diverged from one-at-a-time merging", step, msg)
		}
		if err := checkStore(batched); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	if batched.len() == 0 {
		t.Fatal("the parity run never held an entry")
	}
}

// fillStore builds a store at round 60 holding live origins 1..live,
// refreshed every round, and the expired entries of origins past live,
// merged at round 0 only. expired must stay within a quarter of live,
// so no sweep removes them before the test draws.
func fillStore(s *estimateStore, live, expired int) {
	for i := 0; i < expired; i++ {
		s.mergeFresher(Estimate{Node: addr.NodeID(live + 1 + i), Value: -1}, 0)
	}
	for r := 0; r <= 60; r++ {
		s.expire(r)
		for i := 0; i < live; i++ {
			s.mergeFresher(Estimate{Node: addr.NodeID(i + 1), Value: float64(i), Age: i % 3}, r)
		}
	}
}

// TestEstimateStoreDrawUniform checks the piggyback draw against its
// contract: k distinct live entries per draw, never an expired one,
// every live origin equally likely (chi-squared over 10⁴ fixed-seed
// draws), and every live entry exactly once when k covers the store.
func TestEstimateStoreDrawUniform(t *testing.T) {
	const live, expired, k, draws = 300, 70, 10, 10000
	s := newEstimateStore(50, intern.NewOrigins())
	fillStore(s, live, expired)
	if s.len() != live || s.dead != expired {
		t.Fatalf("store holds %d live and %d expired entries, want %d and %d", s.len(), s.dead, live, expired)
	}
	rng := sim.NewRand(1)
	counts := make([]int64, live)
	var dst []Estimate
	for d := 0; d < draws; d++ {
		dst = s.appendRandomSubset(rng, k, dst[:0], s.round)
		if len(dst) != k {
			t.Fatalf("draw %d returned %d estimates, want %d", d, len(dst), k)
		}
		for i, e := range dst {
			if e.Node < 1 || int(e.Node) > live || e.Value < 0 || e.Age > s.maxAge {
				t.Fatalf("draw %d returned expired or unknown estimate %v", d, e)
			}
			for _, o := range dst[:i] {
				if o.Node == e.Node {
					t.Fatalf("draw %d returned origin %v twice", d, e.Node)
				}
			}
			counts[e.Node-1]++
		}
	}
	if stat, p := stats.ChiSquaredUniform(counts); !(p > 0.001) {
		t.Fatalf("per-origin draw counts are not uniform: chi2 = %.1f, p = %.2g", stat, p)
	}

	small := newEstimateStore(50, intern.NewOrigins())
	fillStore(small, 7, 1)
	if small.dead != 1 {
		t.Fatalf("small store holds %d expired entries, want 1", small.dead)
	}
	got := small.appendRandomSubset(rng, k, nil, small.round)
	seen := make(map[addr.NodeID]int)
	for _, e := range got {
		seen[e.Node]++
	}
	if len(got) != 7 || len(seen) != 7 {
		t.Fatalf("live ≤ k draw returned %v, want each of the 7 live entries once", got)
	}
	for id, c := range seen {
		if id < 1 || id > 7 || c != 1 {
			t.Fatalf("live ≤ k draw returned %v, want each of the 7 live entries once", got)
		}
	}
}

// steadyStores builds n stores sharing one interner, each driven to a
// steady state of roughly 300 live entries by messages of 11 estimates
// over 1000 origins, as a 5k-node world's stores are. It returns the
// stores, the message ring they were fed from and the round reached.
func steadyStores(n int) ([]*estimateStore, [][]Estimate, int) {
	origins := intern.NewOrigins()
	rng := rand.New(rand.NewSource(1))
	msgs := make([][]Estimate, 1024)
	for i := range msgs {
		msgs[i] = make([]Estimate, 11)
		for j := range msgs[i] {
			msgs[i][j] = Estimate{Node: addr.NodeID(1 + rng.Intn(1000)), Value: rng.Float64(), Age: rng.Intn(31)}
		}
	}
	stores := make([]*estimateStore, n)
	for i := range stores {
		stores[i] = newEstimateStore(50, origins)
	}
	rounds := 0
	for ; rounds < 80; rounds++ {
		for i, s := range stores {
			s.expire(rounds)
			s.merge(msgs[(i+rounds)%len(msgs)], 0, rounds)
		}
	}
	return stores, msgs, rounds
}

// TestEstimateStoreAllocs is the store's alloc guard: once the stores
// are at steady size, a round boundary, a message merge and a piggyback
// draw allocate nothing.
func TestEstimateStoreAllocs(t *testing.T) {
	stores, msgs, rounds := steadyStores(64)
	rng := sim.NewRand(1)
	dst := make([]Estimate, 0, 16)
	i := 0
	step := func() {
		s := stores[i%len(stores)]
		if i%len(stores) == 0 {
			rounds++
		}
		s.expire(rounds)
		s.merge(msgs[i%len(msgs)], 0, rounds)
		dst = s.appendRandomSubset(rng, 10, dst[:0], rounds)
		i++
	}
	for range 100 * len(stores) {
		step() // let every store reach its steady capacity
	}
	if allocs := testing.AllocsPerRun(20*len(stores), step); allocs != 0 {
		t.Fatalf("steady-state expire+merge+draw allocates %.2f times per call, want 0", allocs)
	}
}

// benchStores is the micro-benchmarks' store count: enough stores of
// ~300 entries (about 40 MB) that cycling through them misses cache the
// way a 5k-node round does.
const benchStores = 4096

// BenchmarkEstimateStoreMerge merges one 11-estimate message per
// operation, cycling over the stores; each store also crosses one round
// boundary per cycle, so the expiry sweep is part of the cost, as it is
// once per round in a world.
func BenchmarkEstimateStoreMerge(b *testing.B) {
	stores, msgs, rounds := steadyStores(benchStores)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := stores[i%benchStores]
		if i%benchStores == 0 {
			rounds++
		}
		s.expire(rounds)
		s.merge(msgs[i%len(msgs)], 0, rounds)
	}
}

// BenchmarkEstimateStoreDraw draws one 10-estimate piggyback per
// operation, cycling over the stores.
func BenchmarkEstimateStoreDraw(b *testing.B) {
	stores, _, rounds := steadyStores(benchStores)
	rng := sim.NewRand(1)
	dst := make([]Estimate, 0, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = stores[i%benchStores].appendRandomSubset(rng, 10, dst[:0], rounds)
	}
}
