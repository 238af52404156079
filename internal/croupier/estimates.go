package croupier

import (
	"math/rand"
	"slices"

	"repro/internal/addr"
	"repro/internal/intern"
)

// storedEstimate is one M_p entry, 16 bytes packed. The origin
// identity is a world-shared interned reference (intern.Origins), not
// a 64-bit NodeID: ten thousand stores do not each duplicate the same
// few thousand origin identities, and the dense entry array packs four
// entries per cache line instead of two. The age is kept implicitly as
// the round at which the estimate was fresh (birth = rounds − Age at
// receive time), so entries never need a per-round aging sweep: an
// entry's age at round r is simply r − birth, arithmetic identical to
// incrementing an explicit counter once per round.
type storedEstimate struct {
	value  float64
	origin int32 // interned origin reference; never 0
	birth  int32
}

// indexSlot maps an interned origin reference to the position of its
// entry in the dense array. It repeats the entry's birth round, so a
// merge decides from the index alone whether an estimate is fresher
// than the one held, or revives an expired entry. Reference 0 marks an
// empty slot (the interner never issues it).
type indexSlot struct {
	ref   int32
	pos   int32
	birth int32
}

// estHash spreads an interned origin reference over the index
// (splitmix64 finaliser).
func estHash(ref int32) uint64 {
	x := uint64(uint32(ref)) * 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	return x
}

// indexSize returns the smallest index (a power of two, at least 16)
// that holds n references at a load of at most 3/4.
func indexSize(n int) int {
	size := 16
	for n*4 > size*3 {
		size *= 2
	}
	return size
}

// mergeBatch is how many of one message's estimates have their index
// slots read together before any is resolved.
const mergeBatch = 16

// estimateStore holds M_p as a dense array of entries beside a compact
// open-addressed index from origin reference to array position.
//
// Ages are implicit (birth rounds) and expiry is cohort-counted: the
// store keeps one live-entry counter per birth round in a small ring,
// so a round boundary retires the cohort falling out of the history
// window in O(1) with no sweep. Expired entries stay in the array and
// the index — every read path skips them, and a merge from the same
// origin revives one in place — until they outnumber a quarter of the
// live ones, or an insert would otherwise have to grow the store; then
// an in-order sweep drops them and re-indexes the rest. The array's
// order is therefore a deterministic function of the merges and round
// boundaries applied, and so is every iteration over it.
//
// The piggyback draw picks k distinct positions of the array and
// gathers those entries, issuing all k loads before testing any, so
// their cache misses overlap instead of queueing behind one another.
// With at most a fifth of the array expired, the few expired picks are
// replaced by further distinct positions. A merge likewise reads the
// home index slot of every estimate in a batch before resolving any;
// since slots carry birth rounds, that one round of loads decides the
// whole merge.
type estimateStore struct {
	maxAge int
	// origins is the world-shared interner resolving entry references
	// back to node identities (and interning fresh origins on merge).
	origins *intern.Origins
	entries []storedEstimate
	index   []indexSlot // power of two, at most 3/4 full; nil until the first insert
	dead    int         // expired entries still in the array
	// cohorts[b mod len] counts live entries with birth round b; the
	// ring is maxAge+2 long so active birth rounds never collide.
	cohorts []int32
	round   int // the last round boundary processed by expire
	// picks and gather are scratch for the piggyback draw; remap is the
	// compaction scratch (old ref → mark, then old ref → new ref).
	picks  []int32
	gather []storedEstimate
	remap  []int32
}

func newEstimateStore(maxAge int, origins *intern.Origins) *estimateStore {
	return &estimateStore{maxAge: maxAge, origins: origins, cohorts: make([]int32, maxAge+2)}
}

// cohortPtr returns the ring counter for birth round b, which may be
// negative (an estimate received with age a at round r has birth r−a).
func (s *estimateStore) cohortPtr(b int) *int32 {
	i := b % len(s.cohorts)
	if i < 0 {
		i += len(s.cohorts)
	}
	return &s.cohorts[i]
}

// liveAt reports whether an entry born at birth is inside the history
// window.
func (s *estimateStore) liveAt(birth int32) bool {
	return s.round-int(birth) <= s.maxAge
}

// len returns the number of live entries.
func (s *estimateStore) len() int { return len(s.entries) - s.dead }

// probe returns the index slot holding ref, or the empty slot where ref
// would be inserted; found distinguishes the two. The index must be
// non-empty.
func (s *estimateStore) probe(ref int32) (slot int, found bool) {
	mask := uint64(len(s.index) - 1)
	for h := estHash(ref); ; h++ {
		i := int(h & mask)
		switch s.index[i].ref {
		case ref:
			return i, true
		case 0:
			return i, false
		}
	}
}

// rebuildIndex re-indexes every entry into a table of size slots,
// reusing the current table when it already has that size.
func (s *estimateStore) rebuildIndex(size int) {
	if len(s.index) == size {
		clear(s.index)
	} else {
		s.index = make([]indexSlot, size)
	}
	mask := uint64(size - 1)
	for p, e := range s.entries {
		h := estHash(e.origin)
		for s.index[h&mask].ref != 0 {
			h++
		}
		s.index[h&mask] = indexSlot{ref: e.origin, pos: int32(p), birth: e.birth}
	}
}

// materialise converts a stored entry to its wire form at round
// rounds, resolving the interned origin back to its identity.
func (s *estimateStore) materialise(e storedEstimate, rounds int) Estimate {
	return Estimate{Node: s.origins.Lookup(e.origin), Value: e.value, Age: rounds - int(e.birth)}
}

// mergeRef inserts the estimate for ref, or overwrites the entry held
// for ref when that one has expired or the estimate is fresher — the
// merge rule of paper equation 9 — keeping the cohort counters correct.
func (s *estimateStore) mergeRef(ref int32, e Estimate, rounds int) {
	birth := int32(rounds - e.Age)
	i, found := 0, false
	if len(s.index) != 0 {
		i, found = s.probe(ref)
	}
	if found {
		x := &s.index[i]
		switch {
		case !s.liveAt(x.birth):
			s.dead-- // the origin re-enters the window
		case birth > x.birth:
			*s.cohortPtr(int(x.birth))--
		default:
			return
		}
		*s.cohortPtr(int(birth))++
		x.birth = birth
		s.entries[x.pos] = storedEstimate{value: e.Value, origin: ref, birth: birth}
		return
	}
	if len(s.entries) == cap(s.entries) || (len(s.entries)+1)*4 > len(s.index)*3 {
		s.makeRoom()
		i, _ = s.probe(ref)
	}
	s.index[i] = indexSlot{ref: ref, pos: int32(len(s.entries)), birth: birth}
	s.entries = append(s.entries, storedEstimate{value: e.Value, origin: ref, birth: birth})
	*s.cohortPtr(int(birth))++
}

// makeRoom readies the store for an insert that would overflow the
// array or push the index past 3/4 full. It sheds the expired entries
// instead of growing when that leaves room to spare; otherwise whichever
// is full grows: the array by append's policy, the index by doubling.
func (s *estimateStore) makeRoom() {
	room := min(cap(s.entries), len(s.index)*3/4)
	if s.dead > 0 && 32*s.len() <= 31*room {
		s.sweep()
		return
	}
	s.entries = slices.Grow(s.entries, 1)
	if (len(s.entries)+1)*4 > len(s.index)*3 {
		s.rebuildIndex(max(16, 2*len(s.index)))
	}
}

// mergeFresher merges a single estimate received at round rounds (never
// before the store's last round boundary). An estimate older than the
// history window, or with no origin, is dropped. mergeFresher is the
// one-at-a-time form of merge, which the node uses for whole messages.
func (s *estimateStore) mergeFresher(e Estimate, rounds int) {
	if e.Node == 0 || e.Age > s.maxAge {
		return
	}
	s.mergeRef(s.origins.Ref(e.Node), e, rounds)
}

// merge folds one message's estimates into the store, leaving it
// exactly as mergeFresher on each estimate in order would, except that
// the receiver's own estimate (self) is skipped. Each batch reads all
// its home index slots before resolving any, and marks the estimates
// that will change the store: an origin not held, or held with an
// older birth (which every expired entry has, since an estimate older
// than the window is never merged). Only those are then merged one at
// a time. Skipping the rest is exact because a batch can only make
// held births fresher, and an origin first seen in the batch is probed
// again when its turn comes, which covers a message naming one origin
// twice.
func (s *estimateStore) merge(es []Estimate, self addr.NodeID, rounds int) {
	var (
		refs  [mergeBatch]int32
		from  [mergeBatch]int32 // position of refs[j]'s estimate in the batch
		home  [mergeBatch]indexSlot
		apply [mergeBatch]bool
	)
	for len(es) > 0 {
		b := es[:min(len(es), mergeBatch)]
		es = es[len(b):]
		m := 0
		for i := range b {
			e := &b[i]
			if e.Node == 0 || e.Node == self || e.Age > s.maxAge {
				continue
			}
			refs[m] = s.origins.Ref(e.Node)
			from[m] = int32(i)
			m++
		}
		if len(s.index) == 0 {
			for j := range m {
				s.mergeRef(refs[j], b[from[j]], rounds)
			}
			continue
		}
		mask := uint64(len(s.index) - 1)
		for j := range m {
			home[j] = s.index[estHash(refs[j])&mask]
		}
		for j := range m {
			x := home[j]
			if x.ref != refs[j] && x.ref != 0 {
				if i, ok := s.probe(refs[j]); ok {
					x = s.index[i]
				} else {
					x = indexSlot{}
				}
			}
			apply[j] = x.ref != refs[j] || int32(rounds-b[from[j]].Age) > x.birth
		}
		for j := range m {
			if apply[j] {
				s.mergeRef(refs[j], b[from[j]], rounds)
			}
		}
	}
}

// expire advances the store to the given round boundary, retiring the
// cohorts that fall out of the history window in O(1) per round, and
// sweeps the array once expired entries outnumber a quarter of the
// live ones.
func (s *estimateStore) expire(rounds int) {
	for s.round < rounds {
		s.round++
		c := s.cohortPtr(s.round - s.maxAge - 1)
		s.dead += int(*c)
		*c = 0
	}
	if 4*s.dead > s.len() {
		s.sweep()
	}
}

// sweep drops the expired entries from the array, keeping the order of
// the rest, and re-indexes what remains. An array or index left more
// than about twice as big as the live entries need is shrunk to half
// again their number; the margin keeps a store from being shrunk and
// regrown sweep after sweep.
func (s *estimateStore) sweep() {
	kept := s.entries[:0]
	for _, e := range s.entries {
		if s.liveAt(e.birth) {
			kept = append(kept, e)
		}
	}
	s.entries, s.dead = kept, 0
	n := len(kept)
	if cap(kept) > 2*n+16 {
		s.entries = append(make([]storedEstimate, 0, n+n/2+1), kept...)
	}
	if len(s.index) != 0 {
		s.rebuildIndex(min(len(s.index), indexSize(n+n/2+1)))
	}
}

// compactOrigins runs an interner epoch for a store that privately
// owns its interner: references still held by live entries survive,
// every other identity ever interned is dropped, and the array is swept
// and re-indexed under the remapped references (the index hash is a
// function of the reference value, so slots change wholesale). Expired
// entries do not pin their identities: the sweep drops them first.
func (s *estimateStore) compactOrigins() {
	s.sweep()
	n := s.origins.Len()
	if cap(s.remap) <= n {
		s.remap = make([]int32, n+1)
	} else {
		s.remap = s.remap[:n+1]
		clear(s.remap)
	}
	for _, e := range s.entries {
		s.remap[e.origin] = 1
	}
	s.origins.Compact(
		func(ref int32) bool { return s.remap[ref] != 0 },
		func(old, new int32) { s.remap[old] = new },
	)
	for i := range s.entries {
		s.entries[i].origin = s.remap[s.entries[i].origin]
	}
	if len(s.index) != 0 {
		s.rebuildIndex(len(s.index))
	}
}

// sum returns the total of all live estimate values in array order.
func (s *estimateStore) sum() float64 {
	total := 0.0
	for _, e := range s.entries {
		if s.liveAt(e.birth) {
			total += e.value
		}
	}
	return total
}

// appendLive appends every live entry, in array order, to dst.
func (s *estimateStore) appendLive(dst []Estimate, rounds int) []Estimate {
	for _, e := range s.entries {
		if s.liveAt(e.birth) {
			dst = append(dst, s.materialise(e, rounds))
		}
	}
	return dst
}

// appendRandomSubset appends k live entries drawn uniformly at random
// as a set (all of them, in array order, when k covers the store) to
// dst. Floyd's algorithm picks k distinct positions of the array from
// k generator draws, and the entries there are gathered in one pass, so
// the k loads are in flight together. Each expired entry among them is
// replaced by a further position, drawn uniformly from those not yet
// picked, until k live entries are found: the result is the first k
// live positions of a uniformly random ordering of the array, so every
// k-subset of the live entries is equally likely. With at most a fifth
// of the array expired, fewer than k/4 replacements are expected.
func (s *estimateStore) appendRandomSubset(rng *rand.Rand, k int, dst []Estimate, rounds int) []Estimate {
	if s.len() <= k {
		return s.appendLive(dst, rounds)
	}
	n := len(s.entries)
	if cap(s.picks) < 4*k {
		// Room for the expected replacements many times over, so the
		// scratch stops growing after a store's first draw.
		s.picks, s.gather = make([]int32, 0, 4*k), make([]storedEstimate, 0, k)
	}
	picks := s.picks[:0]
	for j := n - k; j < n; j++ {
		p := int32(rng.Intn(j + 1))
		if slices.Contains(picks, p) {
			p = int32(j)
		}
		picks = append(picks, p)
	}
	got := s.gather[:0]
	for _, p := range picks {
		got = append(got, s.entries[p])
	}
	want := k
	for _, e := range got {
		if s.liveAt(e.birth) {
			dst = append(dst, s.materialise(e, rounds))
			want--
		}
	}
	for want > 0 {
		p := int32(rng.Intn(n))
		if slices.Contains(picks, p) {
			continue
		}
		picks = append(picks, p)
		if e := s.entries[p]; s.liveAt(e.birth) {
			dst = append(dst, s.materialise(e, rounds))
			want--
		}
	}
	s.picks, s.gather = picks, got
	return dst
}
