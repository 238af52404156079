package main

import (
	"context"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/croupier"
	"repro/internal/deploy"
	"repro/internal/metrics"
	"repro/internal/ratelimit"
)

// rxTrace is the traced phase of deploy-rx: the CPU profile and the
// conn's read-wait and service timing are on.
type rxTrace struct {
	x     *rxNode
	prof  *cpuProfile
	snap0 metrics.Snapshot

	// Filled by stop.
	snap   metrics.Snapshot
	shares map[string]float64
}

func startRxTrace(x *rxNode) (*rxTrace, error) {
	prof, err := startProfile()
	if err != nil {
		return nil, err
	}
	t := &rxTrace{x: x, prof: prof, snap0: x.reg.Snapshot()}
	x.conn.traced.Store(true)
	// The generator runs on this goroutine; the node's goroutines were
	// started before the label and do not inherit it.
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(), pprof.Labels(generatorLabel, "true")))
	return t, nil
}

func (t *rxTrace) stop() error {
	pprof.SetGoroutineLabels(context.Background())
	t.x.conn.traced.Store(false)
	t.snap = t.x.reg.Snapshot()
	var err error
	t.shares, err = t.prof.stop()
	return err
}

// report prints deploy-rx's per-layer metrics. final is the registry
// after the node closed; the codec and limiter figures come from
// replays run here, on one goroutine, after the node stopped.
func (t *rxTrace) report(r *run, x *rxNode, final metrics.Snapshot, untraced, traced []rxBatch) {
	c := x.conn
	r.put("deploy.read_wait_us_p50", "us", c.readWait.quantile(0.5)/1e3)
	r.put("deploy.service_us_p50", "us", c.service.quantile(0.5)/1e3)
	r.put("deploy.service_us_p99", "us", c.service.quantile(0.99)/1e3)
	r.put("deploy.decode_ns", "ns", replayDecode(x.gen.in))
	encNS, encAllocs := replayEncode(x.gen.keep)
	r.put("deploy.encode_ns", "ns", encNS)
	r.put("deploy.encode_allocs", "count", encAllocs)
	fc := final.Counters
	r.put("deploy.ratelimit_dropped", "count", float64(fc["deploy_ratelimit_dropped_total"]))
	r.put("deploy.oversize", "count", float64(fc["deploy_oversize_total"]))
	r.put("deploy.decode_errors", "count", float64(fc["deploy_decode_errors_total"]))
	r.put("deploy.inbox_drops", "count", float64(fc["deploy_inbox_drops_total"]))
	r.put("deploy.hostile_bytes_out", "bytes", float64(x.gen.hostileBytes))

	allowNS, peers := replayAllow(c.admits)
	r.put("ratelimit.allow_ns", "ns", allowNS)
	r.put("ratelimit.peers", "count", float64(peers))

	const lbl = `{proto="croupier"}`
	rounds := float64(t.snap.Counters["pss_rounds_total"+lbl] - t.snap0.Counters["pss_rounds_total"+lbl])
	r.put("croupier.estimate_entries", "count", float64(t.snap.Gauges["pss_estimate_entries"+lbl]))
	r.put("croupier.merges_per_round", "count", float64(t.snap.Counters["pss_merges_total"+lbl]-t.snap0.Counters["pss_merges_total"+lbl])/rounds)
	r.put("intern.origin_entries", "count", float64(t.snap.Gauges["pss_origin_entries"+lbl]))

	// The node's own exchanges, one per gossip round; the generator
	// never answers them, so they expire.
	delta := func(name string) float64 { return float64(t.snap.Counters[name] - t.snap0.Counters[name]) }
	requests := delta("exchange_requests_total")
	r.put("exchange.requests_per_round", "count", requests/rounds)
	r.put("exchange.completion_frac", "ratio", delta("exchange_responses_total")/requests)
	r.put("exchange.expired_per_round", "count", delta("exchange_expired_total")/rounds)
	r.put("exchange.late_per_round", "count", delta("exchange_late_responses_total")/rounds)

	r.put("runtime.gc_cpu_share", "ratio", t.shares["gc"])
	putShares(r, t.shares)
	r.put("trace.overhead_frac", "ratio", 1-batchMedian(traced, (*rxBatch).rate)/batchMedian(untraced, (*rxBatch).rate))
	// One deployed node: no simulation kernel, network, latency model
	// or world.
	r.idle("sim", "simnet", "latency", "world")
}

// replayMin is how long each replay loops at least, for a stable mean.
const replayMin = 200 * time.Millisecond

// replayDecode times deploy.Decoder.Decode over every pre-encoded
// request, releasing each message as the node does.
func replayDecode(in *rxInputs) float64 {
	var dec deploy.Decoder
	n := 0
	start := time.Now()
	for time.Since(start) < replayMin {
		for i := range in.reqs {
			for _, b := range in.reqs[i] {
				msg, err := dec.Decode(b)
				if err == nil {
					msg.(interface{ Release() }).Release()
				}
				n++
			}
		}
	}
	return float64(time.Since(start)) / float64(n)
}

// replayEncode times deploy.EncodeShuffleRes over responses the node
// sent, decoded back into messages, and counts its allocations.
func replayEncode(samples [][]byte) (ns, allocs float64) {
	var dec deploy.Decoder
	var msgs []*croupier.ShuffleRes
	for _, b := range samples {
		if m, err := dec.Decode(b); err == nil {
			if res, ok := m.(*croupier.ShuffleRes); ok {
				msgs = append(msgs, res)
			}
		}
	}
	if len(msgs) == 0 {
		return 0, 0
	}
	var before, after runtime.MemStats
	n := 0
	runtime.ReadMemStats(&before)
	start := time.Now()
	for time.Since(start) < replayMin {
		for _, m := range msgs {
			_ = deploy.EncodeShuffleRes(m)
			n++
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(elapsed) / float64(n), float64(after.Mallocs-before.Mallocs) / float64(n)
}

// replayAllow feeds the traced phase's admission sequence (every
// datagram within the size ceiling, with its read time) through a fresh
// ratelimit.Limiter configured like the node's.
func replayAllow(seq []admitted) (ns float64, peers int) {
	if len(seq) == 0 {
		return 0, 0
	}
	l := ratelimit.New(rxLimits, seq[0].at)
	start := time.Now()
	for _, a := range seq {
		l.Allow(a.at, a.key)
	}
	return float64(time.Since(start)) / float64(len(seq)), l.Peers()
}
