// Scale benchmarks: the cost of one gossip round at deployment sizes
// far beyond the paper's few-hundred-node evaluation (1k / 5k / 20k
// nodes, all four protocols), plus shard-count variants of the 20k/50k
// croupier round and the join wave on the parallel kernel. They give
// raw `go test -bench` numbers; the repository benchmark that records
// end-to-end and per-layer metrics is `bash perfbench/run.sh` (see
// perfbench/README.md).
//
// The suite is expensive to set up (a 20k-node world joins 20k hosts
// and warms up ten rounds), so it is benchmark-only: nothing here runs
// under plain `go test`. The short-mode scale smoke test lives in
// scale_smoke_test.go instead.
package repro_test

import (
	"fmt"
	"os"
	"testing"
	"time"

	"repro/internal/world"
)

// scaleWorld builds an n-node deployment (20% public, the paper's
// ratio) on the given shard count and warms it up for sixty rounds
// past the end of the join wave, so views, NAT tables, pools and the
// estimate stores (whose history window is fifty rounds) are in steady
// state before measurement begins.
func scaleWorld(tb testing.TB, kind world.Kind, n, shards int) *world.World {
	tb.Helper()
	w, err := world.New(world.Config{Kind: kind, Seed: 1, Shards: shards, SkipNatID: true})
	if err != nil {
		tb.Fatal(err)
	}
	pub := n / 5
	joinGap := time.Millisecond
	w.MixedPoissonJoins(0, pub, n-pub, joinGap)
	warmUntil := time.Duration(n)*joinGap + 60*time.Second
	w.RunUntil(warmUntil)
	return w
}

func BenchmarkScaleRound(b *testing.B) {
	kinds := []world.Kind{world.KindCroupier, world.KindCyclon, world.KindGozar, world.KindNylon}
	for _, kind := range kinds {
		for _, n := range []int{1000, 5000, 20000} {
			b.Run(fmt.Sprintf("%s/n=%d", kind, n), func(b *testing.B) {
				w := scaleWorld(b, kind, n, 1)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					w.RunUntil(w.Sched.Now() + time.Second)
				}
			})
		}
	}
}

// BenchmarkScaleRoundSharded measures the big croupier rounds at 1, 2
// and 4 kernel shards: the same world, same seed, same
// (byte-identical) figures, executed on the sharded kernel. shards=1
// is the sequential reference; on a multi-core host the shards=2/4
// rows are the parallel speedup, on a single-core host they price the
// window-barrier coordination.
func BenchmarkScaleRoundSharded(b *testing.B) {
	for _, n := range []int{20000, 50000} {
		for _, shards := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("croupier/n=%d/shards=%d", n, shards), func(b *testing.B) {
				w := scaleWorld(b, world.KindCroupier, n, shards)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					w.RunUntil(w.Sched.Now() + time.Second)
				}
			})
		}
	}
}

// buildWorld runs the join wave: a croupier world constructed and
// simulated until every node of an n-node mixed Poisson join stream
// (1 ms mean gap, 20% public) has joined. The stream's last arrival
// lands near — but randomly past or short of — the n·gap horizon, so
// after running to the horizon the tail is drained until the
// population is complete.
func buildWorld(b *testing.B, n, shards int) {
	w, err := world.New(world.Config{Kind: world.KindCroupier, Seed: 1, Shards: shards, SkipNatID: true})
	if err != nil {
		b.Fatal(err)
	}
	pub := n / 5
	w.MixedPoissonJoins(0, pub, n-pub, time.Millisecond)
	t := time.Duration(n) * time.Millisecond
	w.RunUntil(t)
	for len(w.Nodes()) < n {
		t += 50 * time.Millisecond
		w.RunUntil(t)
	}
}

// BenchmarkWorldConstruction measures the join wave itself. This is
// the cost a 50k-node experiment pays before its first warm round —
// host attachment, gateway construction, service port binds, bootstrap
// directory draws, protocol construction, and the partial gossip
// rounds nodes run while the wave is still arriving.
func BenchmarkWorldConstruction(b *testing.B) {
	for _, n := range []int{5000, 20000, 50000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buildWorld(b, n, 1)
			}
		})
	}
}

// BenchmarkWorldConstructionSharded is the join wave on the parallel
// kernel: per-node construction work and the partial gossip rounds run
// on shard schedulers, with protocol starts and directory draws at the
// window barriers. The 250k build — the kernel's current largest-world
// checkpoint on the road to 1M — is gated behind REPRO_BENCH_250K=1
// because one iteration simulates a 250-second join wave.
func BenchmarkWorldConstructionSharded(b *testing.B) {
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("n=50000/shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buildWorld(b, 50000, shards)
			}
		})
	}
	if os.Getenv("REPRO_BENCH_250K") == "1" {
		b.Run("n=250000/shards=4", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buildWorld(b, 250000, 4)
			}
		})
	}
}
