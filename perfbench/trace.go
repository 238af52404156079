package main

import (
	"time"

	"repro/internal/world"
)

// traceProbe is the traced phase of a simulated run: the CPU profile,
// the latency wrapper and the barrier hook are on, and per-round
// allocation counts are read around each RunUntil.
type traceProbe struct {
	sw      *simWorld
	prof    *cpuProfile
	start   time.Time
	cpu0    time.Duration
	c0      simCounts
	pending float64

	rounds     int
	roundMS    []float64
	allocs     uint64 // allocations inside traced RunUntil calls
	allocBytes uint64
	objs0      uint64 // counters read by before
	bytes0     uint64

	// Filled by stop.
	wall   time.Duration
	cpu    time.Duration
	c      simCounts
	shares map[string]float64
}

func startTrace(sw *simWorld) (*traceProbe, error) {
	prof, err := startProfile()
	if err != nil {
		return nil, err
	}
	sw.lat.on = true
	sw.bar.enable()
	return &traceProbe{
		sw: sw, prof: prof, start: time.Now(), cpu0: procCPU(),
		c0: sw.fullCounts(),
	}, nil
}

// before reads the allocation counters just ahead of a traced round.
func (t *traceProbe) before() { t.objs0, t.bytes0 = allocCounters() }

// round records one traced round: its wall time, the allocations made
// inside it, and the kernel's queue depth after it.
func (t *traceProbe) round(d time.Duration) {
	objs, bytes := allocCounters()
	t.allocs += objs - t.objs0
	t.allocBytes += bytes - t.bytes0
	t.rounds++
	t.roundMS = append(t.roundMS, float64(d)/float64(time.Millisecond))
	t.pending += float64(t.sw.w.Kernel().Pending())
}

// stop ends the traced phase.
func (t *traceProbe) stop() error {
	t.wall = time.Since(t.start)
	t.cpu = procCPU() - t.cpu0
	t.c = t.sw.fullCounts().sub(t.c0)
	t.sw.lat.on = false
	t.sw.bar.on = false
	var err error
	t.shares, err = t.prof.stop()
	return err
}

// report prints the per-layer metrics of a simulated run.
func (t *traceProbe) report(r *run, spec simSpec, untracedMedianMS float64) {
	sw := t.sw
	rounds := float64(t.rounds)
	c := t.c
	eventsPerRound := float64(c.fired) / rounds
	r.put("sim.events_per_round", "count", eventsPerRound)
	r.put("sim.ns_per_event", "ns", untracedMedianMS*1e6/eventsPerRound)
	r.put("sim.pending_events", "count", t.pending/rounds)
	r.put("sim.windows_per_round", "count", float64(sw.bar.windows)/rounds)
	r.put("sim.events_per_window", "count", float64(c.fired)/float64(sw.bar.windows))
	r.put("sim.shard_imbalance", "ratio", sw.bar.ratioSum/float64(sw.bar.ratioN))
	r.put("sim.shard_busy_frac", "ratio", t.cpu.Seconds()/(t.wall.Seconds()*float64(spec.shards)))

	r.put("simnet.sends_per_round", "count", float64(c.sends)/rounds)
	r.put("simnet.delivered_frac", "ratio", float64(c.delivered)/float64(c.sends))
	r.put("simnet.dropped_per_round", "count", float64(c.dropped)/rounds)

	calls, timed, ns := sw.lat.totals()
	r.put("latency.delay_calls_per_round", "count", float64(calls)/rounds)
	r.put("latency.delay_ns", "ns", float64(ns)/float64(timed))

	r.put("exchange.requests_per_round", "count", float64(c.requests)/rounds)
	r.put("exchange.completion_frac", "ratio", float64(c.responses)/float64(c.requests))
	r.put("exchange.expired_per_round", "count", float64(c.expired)/rounds)
	r.put("exchange.late_per_round", "count", float64(c.late)/rounds)

	if spec.kind == world.KindCroupier {
		r.put("croupier.estimate_entries", "count", float64(sw.reg.Snapshot().Gauges["pss_estimate_entries"+sw.protoL]))
		r.put("croupier.merges_per_round", "count", float64(c.merges)/rounds)
		r.put("intern.origin_entries", "count", float64(croupierOrigins(sw.w)))
	} else {
		// Cyclon keeps no estimate store and interns no origins.
		r.idle("croupier", "intern")
	}

	r.put("world.join_s", "s", sw.joinS)
	r.put("world.warm_s", "s", sw.warmS)
	r.put("world.round_allocs", "count", float64(t.allocs)/rounds)
	r.put("world.round_alloc_bytes", "bytes", float64(t.allocBytes)/rounds)

	r.put("runtime.gc_cpu_share", "ratio", t.shares["gc"])
	putShares(r, t.shares)
	r.put("trace.overhead_frac", "ratio", 1-untracedMedianMS/median(t.roundMS))
	r.idle("deploy", "ratelimit")
}
