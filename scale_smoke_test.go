// The short-mode scale smoke: construct a 5k-node deployment, run full
// gossip rounds through the calendar-queue scheduler and the dense
// network tables, and probe the overlay through the reusable snapshot
// path. This is the every-push CI guard that the large-N construction
// and round paths keep working; the performance numbers come from the
// repository benchmark, `bash perfbench/run.sh` (see perfbench/README.md).
package repro_test

import (
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/world"
)

func TestScaleSmoke5kRound(t *testing.T) {
	const n = 5000
	w, err := world.New(world.Config{Kind: world.KindCroupier, Seed: 7, SkipNatID: true})
	if err != nil {
		t.Fatal(err)
	}
	pub := n / 5
	w.MixedPoissonJoins(0, pub, n-pub, time.Millisecond)
	// Join wave plus a few warm rounds, then two measured-path rounds.
	w.RunUntil(time.Duration(n)*time.Millisecond + 5*time.Second)
	w.RunUntil(w.Sched.Now() + 2*time.Second)

	alive := w.AliveNodes()
	if len(alive) != n {
		t.Fatalf("alive = %d, want %d", len(alive), n)
	}
	started := 0
	for _, node := range alive {
		if node.Started() {
			started++
		}
	}
	if started != n {
		t.Fatalf("started = %d, want %d", started, n)
	}

	// The dense overlay snapshot path the scenario probes use.
	var o graph.Overlay
	var b graph.Builder
	w.SnapshotOverlay(&o, false)
	snap := b.Build(&o)
	if snap.Order() != n {
		t.Fatalf("snapshot order = %d, want %d", snap.Order(), n)
	}
	if snap.Edges() == 0 {
		t.Fatal("overlay has no edges after warm rounds")
	}
	// After a handful of rounds the overlay must be essentially one
	// connected component — gossip that fragments at 5k would be a
	// kernel-scale regression, not protocol noise.
	if frac := float64(snap.BiggestCluster()) / float64(n); frac < 0.99 {
		t.Fatalf("biggest cluster holds %.3f of the population, want ≥ 0.99", frac)
	}

	// The ratio estimation machinery must be live at scale: some
	// croupier has produced an estimate in the right ballpark.
	avg, _, ratio := w.MeasureEstimationError()
	if ratio < 0.15 || ratio > 0.25 {
		t.Fatalf("actual public ratio = %.3f, want ≈ 0.2", ratio)
	}
	if avg != avg { // NaN: nobody estimated
		t.Fatal("no node produced a ratio estimate")
	}
	if avg > 0.2 {
		t.Fatalf("mean estimation error %.3f after warmup, want ≤ 0.2", avg)
	}
}

// TestScaleSmokeShardedCounters runs the same deployment shape on a
// 4-shard kernel and checks that the cross-shard accounting planes
// aggregate coherently: the kernel's fired/pending totals and the
// network's send/delivery/drop cells are summed over per-shard state,
// and between windows they must obey the conservation the sequential
// kernel guarantees trivially. CI runs this under the race detector —
// with four shard workers live it doubles as the data-race guard on
// the barrier protocol.
func TestScaleSmokeShardedCounters(t *testing.T) {
	const n = 5000
	w, err := world.New(world.Config{Kind: world.KindCroupier, Seed: 7, Shards: 4, SkipNatID: true})
	if err != nil {
		t.Fatal(err)
	}
	pub := n / 5
	w.MixedPoissonJoins(0, pub, n-pub, time.Millisecond)
	w.RunUntil(time.Duration(n)*time.Millisecond + 5*time.Second)

	if alive := len(w.AliveNodes()); alive != n {
		t.Fatalf("alive = %d, want %d", alive, n)
	}
	fired, pending := w.Kernel().Fired(), w.Kernel().Pending()
	if fired == 0 {
		t.Fatal("sharded kernel reports zero fired events after a 5k join wave")
	}
	if pending == 0 {
		t.Fatal("sharded kernel reports zero pending events in a live gossip world")
	}
	sends, delivered, dropped := w.Net.Sends(), w.Net.Delivered(), w.Net.Dropped()
	if sends == 0 || delivered == 0 {
		t.Fatalf("no traffic accounted: sends=%d delivered=%d", sends, delivered)
	}
	if delivered+dropped > sends {
		t.Fatalf("accounting leak: delivered(%d) + dropped(%d) > sends(%d)", delivered, dropped, sends)
	}
	// Every delivery and every drop is one fired simulation event (plus
	// timers, joins and protocol rounds on top), so the kernel total
	// bounds the network total.
	if delivered > fired {
		t.Fatalf("delivered(%d) exceeds total fired events(%d)", delivered, fired)
	}
}
