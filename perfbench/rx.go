package main

import (
	"fmt"
	"math/rand"
	"net"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/addr"
	"repro/internal/croupier"
	"repro/internal/deploy"
	"repro/internal/exchange"
	"repro/internal/metrics"
	"repro/internal/ratelimit"
	"repro/internal/view"
)

// deploy-rx drives one public deploy.Node through a benchmark-owned
// PacketConn: no socket, no loopback, so the numbers are the receive
// path's (admit → decode → handle → encode), not the kernel's.
//
// One generator goroutine keeps rxWindow legitimate ShuffleReqs
// outstanding (closed loop), each from one of rxSources virtual source
// endpoints in round-robin order, drives the node's gossip rounds and
// interleaves hostile datagrams. README.md derives each figure.
const (
	// rxSources is every other node of the croupier-5k world: any of
	// them may hold the node in its public view and shuffle with it.
	rxSources  = 5000 - 1
	rxVariants = 4 // pre-encoded requests per source
	// rxWindow requests outstanding keep the node busy; past 64 extra
	// requests mostly queue (README.md has the sweep).
	rxWindow = 64
	// rxTickEvery legitimate completions drive one gossip round. It is
	// croupier-5k's exchange.requests_per_round (5000: every node
	// shuffles with one public node per round) over its 1000 public
	// nodes.
	rxTickEvery = 5
	// rxWarmRounds of traffic reach steady state before set-up counts as
	// done: every source has sent once, so the limiter's peer table is
	// full, and the estimate store is past its 50-round window.
	rxWarmRounds = rxSources/rxTickEvery + 1
	rxTimeout    = time.Second

	// The hostile traffic is the deploy soak test's (TestSoakDeployment)
	// at its whole-run rate: a flood is one spoofed endpoint spraying
	// rxFloodJunk undecodable datagrams plus one oversize frame from
	// another, and the soak sends 50 floods in its 10,000 rounds.
	rxFloodEvery = 10000 / 50
	rxFloodJunk  = 300

	// rxFailN is how many legitimate requests, the first sent in the
	// measurement window, shuffle_fail_frac is taken over. A fixed count
	// keeps it independent of throughput.
	rxFailN = 10000

	// rxSetups replaces setups for deploy-rx: one set-up takes tens of
	// milliseconds, so a median over 11 of them costs under half a
	// second and keeps one slow start from moving setup_s.
	rxSetups = 11

	rxMaxDatagram = 2048
	rxNodeID      = addr.NodeID(1)
)

// The limiter keeps the per-source burst at its default (128), so the
// spray's first burst, plus the window, fits the node's 256-datagram
// inbox, and raises the per-source rate to 1024/s: each legitimate
// source sends throughput/rxSources per second (~20/s at 100k
// exchanges/s), far under it, while the spray source is refused almost
// entirely. The global bucket is opened wide; its 4096/s default would
// refuse the legitimate load.
var rxLimits = ratelimit.Config{
	PeerRate: 1024, PeerBurst: 128,
	GlobalRate: 1e9, GlobalBurst: 1e9,
	MaxPeers: 4096,
}

// Address plan: legitimate sources 11.0.x.y, the junk spray 12.0.0.0,
// oversize frames 12.1.0.0, the node itself 13.0.0.1.
var rxNodeAddr = netip.AddrPortFrom(netip.AddrFrom4([4]byte{13, 0, 0, 1}), 7000)

func legitAddr(i int) netip.AddrPort {
	return netip.AddrPortFrom(netip.AddrFrom4([4]byte{11, 0, byte(i >> 8), byte(i)}), 7000)
}

func hostileAddr(class int) netip.AddrPort {
	return netip.AddrPortFrom(netip.AddrFrom4([4]byte{12, byte(class), 0, 0}), 7000)
}

// legitIndex returns the source index of a legitimate endpoint.
func legitIndex(a netip.AddrPort) (int, bool) {
	b := a.Addr().As4()
	if b[0] != 11 {
		return 0, false
	}
	return int(b[2])<<8 | int(b[3]), true
}

func isHostile(a netip.AddrPort) bool { return a.Addr().As4()[0] == 12 }

func sourceID(i int) addr.NodeID { return addr.NodeID(1000 + i) }

func sourceDesc(i int) view.Descriptor {
	a := legitAddr(i).Addr().As4()
	nat := addr.Private
	if i%5 == 0 {
		nat = addr.Public
	}
	return view.Descriptor{
		ID:       sourceID(i),
		Endpoint: addr.Endpoint{IP: addr.MakeIP(a[0], a[1], a[2], a[3]), Port: 7000},
		Nat:      nat,
	}
}

// rxInputs are the datagrams the generator sends, all made from the
// seed before the node starts.
type rxInputs struct {
	reqs     [rxSources][rxVariants][]byte
	junk     [][]byte
	oversize [][]byte
	seeds    []view.Descriptor
}

func makeRxInputs(seed int64) *rxInputs {
	rng := rand.New(rand.NewSource(seed))
	in := &rxInputs{}
	var pubs, pris []int
	for i := 0; i < rxSources; i++ {
		if sourceDesc(i).Nat == addr.Public {
			pubs = append(pubs, i)
		} else {
			pris = append(pris, i)
		}
	}
	pick := func(from []int, k, not int) []view.Descriptor {
		var out []view.Descriptor
		for len(out) < k {
			j := from[rng.Intn(len(from))]
			if j == not {
				continue
			}
			d := sourceDesc(j)
			d.Age = int32(rng.Intn(8))
			out = append(out, d)
		}
		return out
	}
	for i := 0; i < rxSources; i++ {
		for v := 0; v < rxVariants; v++ {
			req := &croupier.ShuffleReq{From: sourceDesc(i), Pub: pick(pubs, 5, i), Pri: pick(pris, 5, i)}
			for e := 0; e < 10; e++ {
				req.Estimates = append(req.Estimates, exchange.Estimate{
					Node:  sourceID(pubs[rng.Intn(len(pubs))]),
					Value: 0.15 + 0.1*rng.Float64(),
					Age:   rng.Intn(20),
				})
			}
			in.reqs[i][v] = deploy.EncodeShuffleReq(req)
		}
	}
	for i := 0; i < 64; i++ {
		var b []byte
		if i%2 == 0 {
			// Unknown message kind.
			b = make([]byte, 1+rng.Intn(64))
			rng.Read(b)
			b[0] = byte(7 + rng.Intn(249))
		} else {
			// A shuffle truncated inside its sender descriptor.
			b = make([]byte, 2+rng.Intn(10))
			rng.Read(b)
			b[0] = byte(1 + rng.Intn(2))
		}
		in.junk = append(in.junk, b)
	}
	for i := 0; i < 8; i++ {
		b := make([]byte, rxMaxDatagram+1+rng.Intn(2048))
		rng.Read(b)
		in.oversize = append(in.oversize, b)
	}
	for _, j := range pubs[:5] {
		in.seeds = append(in.seeds, sourceDesc(j))
	}
	return in
}

// inDgram is one datagram on its way to the node.
type inDgram struct {
	b    []byte
	from netip.AddrPort
	at   time.Time
}

// outDgram is one datagram the node wrote.
type outDgram struct {
	b  []byte
	to netip.AddrPort
	at time.Time
}

// rxConn is the benchmark's deploy.PacketConn: reads come from the
// generator's channel, writes go back to it. In traced runs it also
// times the node's receive wait and service time and records the source
// sequence the rate limiter saw.
type rxConn struct {
	in     chan inDgram
	out    chan outDgram
	closed chan struct{}
	once   sync.Once

	// traced switches the timing below on; the generator flips it
	// between phases while the node runs.
	traced atomic.Bool
	// Read-goroutine state.
	readWait logHist
	readAt   [rxSources]time.Time
	admits   []admitted
	// Write-goroutine state; readAt entries are published to it through
	// the node's inbox channel.
	service logHist
}

// admitted is one datagram the node's limiter judged, for the replay.
type admitted struct {
	key uint64
	at  int64
}

// The channels hold at most rxWindow legitimate datagrams plus one
// flood (rxFloodJunk+1) and the node's own requests; 4096 leaves room
// so neither side ever blocks on a full buffer.
func newRxConn() *rxConn {
	return &rxConn{
		in:     make(chan inDgram, 4096),
		out:    make(chan outDgram, 4096),
		closed: make(chan struct{}),
	}
}

// ReadFromUDPAddrPort implements deploy.PacketConn.
func (c *rxConn) ReadFromUDPAddrPort(b []byte) (int, netip.AddrPort, error) {
	select {
	case d := <-c.in:
		n := copy(b, d.b)
		if c.traced.Load() {
			now := time.Now()
			c.readWait.add(now.Sub(d.at))
			if i, ok := legitIndex(d.from); ok {
				c.readAt[i] = now
			}
			if len(d.b) <= rxMaxDatagram && len(c.admits) < cap(c.admits) {
				a := d.from.Addr().As4()
				ip := uint64(a[0])<<24 | uint64(a[1])<<16 | uint64(a[2])<<8 | uint64(a[3])
				c.admits = append(c.admits, admitted{key: ip<<16 | uint64(d.from.Port()), at: now.UnixNano()})
			}
		}
		return n, d.from, nil
	case <-c.closed:
		return 0, netip.AddrPort{}, net.ErrClosed
	}
}

// WriteToUDPAddrPort implements deploy.PacketConn. The node hands over
// a freshly encoded slice, so it is passed on without a copy.
func (c *rxConn) WriteToUDPAddrPort(b []byte, to netip.AddrPort) (int, error) {
	now := time.Now()
	if c.traced.Load() {
		// A response's request was read while tracing unless its
		// read time is unset (read before the switch).
		if i, ok := legitIndex(to); ok && len(b) > 0 && b[0] == 2 && !c.readAt[i].IsZero() {
			c.service.add(now.Sub(c.readAt[i]))
		}
	}
	select {
	case c.out <- outDgram{b: b, to: to, at: now}:
		return len(b), nil
	case <-c.closed:
		return 0, net.ErrClosed
	}
}

// LocalAddrPort implements deploy.PacketConn.
func (c *rxConn) LocalAddrPort() netip.AddrPort { return rxNodeAddr }

// Close implements deploy.PacketConn.
func (c *rxConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}

// rxGen is the closed-loop generator and response checker.
type rxGen struct {
	in    *rxInputs
	conn  *rxConn
	ticks chan time.Time
	rng   *rand.Rand
	dec   deploy.Decoder

	outstanding [rxSources]bool
	sentAt      [rxSources]time.Time
	seq         [rxSources]uint64 // sent count when the request went out
	inflight    int
	cursor      int
	variant     int

	rtt                    *logHist // the current batch's; nil while warming
	sent, answered, failed uint64
	// failedIn counts failed requests with seq in [failFrom, failTo).
	failFrom, failTo, failedIn uint64
	junk, oversize             uint64
	hostileBytes               uint64
	problems                   []string
	keep                       [][]byte // response samples for the encode replay
	heap                       *heapSampler
}

func (g *rxGen) problem(format string, args ...any) {
	if len(g.problems) < maxProblems {
		g.problems = append(g.problems, fmt.Sprintf(format, args...))
	}
}

func (g *rxGen) push(b []byte, from netip.AddrPort) {
	g.conn.in <- inDgram{b: b, from: from, at: time.Now()}
}

// send sends the next source's request and, once every rxFloodEvery
// rounds' worth of requests from the first on, the soak test's flood.
func (g *rxGen) send() {
	g.sendRequest()
	if g.sent%(rxFloodEvery*rxTickEvery) == 1 {
		g.flood()
	}
}

// sendRequest sends the next free source's request.
func (g *rxGen) sendRequest() {
	for g.outstanding[g.cursor] {
		g.cursor = (g.cursor + 1) % rxSources
	}
	i := g.cursor
	g.cursor = (g.cursor + 1) % rxSources
	if i == 0 {
		g.variant = (g.variant + 1) % rxVariants
	}
	g.outstanding[i] = true
	g.inflight++
	g.sentAt[i] = time.Now()
	g.seq[i] = g.sent
	g.sent++
	g.push(g.in.reqs[i][g.variant], legitAddr(i))
}

// flood sends rxFloodJunk undecodable datagrams from the spray
// endpoint, then one oversize frame from another.
func (g *rxGen) flood() {
	for k := 0; k < rxFloodJunk; k++ {
		g.push(g.in.junk[g.rng.Intn(len(g.in.junk))], hostileAddr(0))
	}
	g.junk += rxFloodJunk
	g.oversize++
	g.push(g.in.oversize[g.rng.Intn(len(g.in.oversize))], hostileAddr(1))
}

// handle checks one datagram the node wrote and reports whether it
// completed a legitimate exchange.
func (g *rxGen) handle(o outDgram) bool {
	if isHostile(o.to) {
		g.hostileBytes += uint64(len(o.b))
		return false
	}
	msg, err := g.dec.Decode(o.b)
	if err != nil {
		g.problem("node wrote an undecodable datagram to %v: %v", o.to, err)
		return false
	}
	switch m := msg.(type) {
	case *croupier.ShuffleReq:
		m.Release() // the node's own gossip round; left unanswered
		return false
	case *croupier.ShuffleRes:
		defer m.Release()
		i, ok := legitIndex(o.to)
		if !ok {
			g.problem("response to unknown endpoint %v", o.to)
			return false
		}
		if m.From.ID != rxNodeID {
			g.problem("response to %v from %v, not the node", o.to, m.From.ID)
		}
		for _, ds := range [][]view.Descriptor{m.Pub, m.Pri} {
			for _, d := range ds {
				if d.ID == sourceID(i) {
					g.problem("response to source %d lists the requester", i)
				}
			}
		}
		if !g.outstanding[i] {
			g.problem("response to source %d with no request outstanding", i)
			return false
		}
		g.outstanding[i] = false
		g.inflight--
		g.answered++
		if g.rtt != nil {
			g.rtt.add(o.at.Sub(g.sentAt[i]))
		}
		if len(g.keep) < cap(g.keep) {
			g.keep = append(g.keep, o.b)
		}
		return true
	default:
		g.problem("node wrote an unexpected %T", msg)
		return false
	}
}

// completed follows one finished exchange: every rxTickEvery it drives
// a gossip round, waiting for the previous one to start, and every 4096
// it samples the heap.
func (g *rxGen) completed() {
	if g.answered%rxTickEvery == 0 {
		g.ticks <- time.Time{}
	}
	if g.heap != nil && g.answered%4096 == 0 {
		g.heap.sample()
	}
}

// expire fails requests unanswered for rxTimeout.
func (g *rxGen) expire(now time.Time) {
	for i := range g.outstanding {
		if g.outstanding[i] && now.Sub(g.sentAt[i]) > rxTimeout {
			g.outstanding[i] = false
			g.inflight--
			g.failed++
			if g.seq[i] >= g.failFrom && g.seq[i] < g.failTo {
				g.failedIn++
			}
		}
	}
}

// run keeps the window full until n more exchanges completed (n > 0) or
// until the deadline passes, then stops sending.
func (g *rxGen) run(n uint64, until time.Time) {
	for g.inflight < rxWindow {
		g.send()
	}
	stop := g.answered + n
	check := time.NewTicker(50 * time.Millisecond)
	defer check.Stop()
	for {
		if n > 0 && g.answered >= stop || n == 0 && !time.Now().Before(until) {
			return
		}
		select {
		case o := <-g.conn.out:
			if g.handle(o) {
				g.completed()
			}
		case now := <-check.C:
			g.expire(now)
		}
		for g.inflight < rxWindow {
			g.send()
		}
	}
}

// drain sends one last request, with no hostile datagram after it, and
// waits until every outstanding one is answered or failed. The node
// reads and handles datagrams in order, so once the last response
// arrives every hostile datagram has been judged.
func (g *rxGen) drain() {
	g.sendRequest()
	deadline := time.NewTimer(2 * rxTimeout)
	defer deadline.Stop()
	for g.inflight > 0 {
		select {
		case o := <-g.conn.out:
			g.handle(o)
		case <-deadline.C:
			g.expire(time.Now().Add(rxTimeout))
		}
	}
}

// rxBatch is one batch of the measurement window.
type rxBatch struct {
	exchanges uint64
	elapsed   time.Duration
	rtt       logHist
}

func (b *rxBatch) rate() float64 { return float64(b.exchanges) / b.elapsed.Seconds() }
func (b *rxBatch) p50() float64  { return b.rtt.quantile(0.5) / 1e6 }
func (b *rxBatch) p90() float64  { return b.rtt.quantile(0.9) / 1e6 }

// rxBatchLen is the length of one measurement batch. Each end-to-end
// figure is the median over the window's batches, so a host stall
// moves the batches it falls in, not the result. A batch still holds
// tens of thousands of exchanges, thousands of them beyond p90.
const rxBatchLen = 250 * time.Millisecond

// batches runs the closed loop for window, split into batches of
// rxBatchLen (at least one).
func (g *rxGen) batches(window time.Duration) []rxBatch {
	n := int(window / rxBatchLen)
	if n < 1 {
		n = 1
	}
	out := make([]rxBatch, n)
	for i := range out {
		b := &out[i]
		g.rtt = &b.rtt
		start, base := time.Now(), g.answered
		g.run(0, start.Add(window/time.Duration(n)))
		b.exchanges, b.elapsed = g.answered-base, time.Since(start)
	}
	g.rtt = nil
	return out
}

// batchMedian returns the median of f over the batches.
func batchMedian(bs []rxBatch, f func(*rxBatch) float64) float64 {
	xs := make([]float64, len(bs))
	for i := range bs {
		xs[i] = f(&bs[i])
	}
	return median(xs)
}

// rxNode is one started node with its conn and registry.
type rxNode struct {
	node *deploy.Node
	conn *rxConn
	reg  *metrics.Registry
	gen  *rxGen
}

// startRx starts a node and warms it with rxWarmRounds of traffic.
func startRx(in *rxInputs, seed int64, traced bool) (*rxNode, time.Duration, error) {
	conn := newRxConn()
	if traced {
		conn.admits = make([]admitted, 0, 1<<20)
	}
	reg := metrics.NewRegistry()
	ticks := make(chan time.Time, 1)
	start := time.Now()
	node, err := deploy.StartNode(deploy.NodeConfig{
		Conn: conn, ID: rxNodeID, Nat: addr.Public,
		FetchSeeds:  func() ([]view.Descriptor, error) { return in.seeds, nil },
		Ticks:       ticks,
		RateLimit:   rxLimits,
		MaxDatagram: rxMaxDatagram,
		Seed:        seed,
		Registry:    reg,
	})
	if err != nil {
		return nil, 0, err
	}
	g := &rxGen{in: in, conn: conn, ticks: ticks, rng: rand.New(rand.NewSource(seed)), keep: make([][]byte, 0, 256)}
	g.run(rxWarmRounds*rxTickEvery, time.Time{})
	return &rxNode{node: node, conn: conn, reg: reg, gen: g}, time.Since(start), nil
}

// close drains the generator, stops the node, runs the output checks
// and returns the registry's final counters.
func (x *rxNode) close(r *run) (metrics.Snapshot, error) {
	g := x.gen
	g.drain()
	if err := x.node.Close(); err != nil {
		return metrics.Snapshot{}, fmt.Errorf("close node: %w", err)
	}
	snap := x.reg.Snapshot()
	for _, p := range g.problems {
		r.check(false, "%s", p)
	}
	c := snap.Counters
	dropped, decodeErrs := c["deploy_ratelimit_dropped_total"], c["deploy_decode_errors_total"]
	r.check(g.hostileBytes == 0, "hostile datagrams drew %d reply bytes", g.hostileBytes)
	r.check(c["deploy_oversize_total"] == g.oversize, "oversize counter %d, generator sent %d", c["deploy_oversize_total"], g.oversize)
	// Every junk datagram is refused by the limiter or fails decode;
	// a legitimate request refused would push the sum over.
	r.check(dropped+decodeErrs == g.junk,
		"rate-limit drops %d + decode errors %d != junk sent %d", dropped, decodeErrs, g.junk)
	r.check(dropped > 0 && decodeErrs > 0, "spray exercised one path only: %d rate-limited, %d decode errors", dropped, decodeErrs)
	r.check(g.failed == 0, "%d legitimate requests went unanswered", g.failed)
	return snap, nil
}

func runRx(r *run) error {
	in := makeRxInputs(r.seed)
	reps := rxSetups
	if r.trace {
		reps = 1
	}
	var setupS []float64
	var x *rxNode
	for i := 0; i < reps; i++ {
		var d time.Duration
		var err error
		if x, d, err = startRx(in, r.seed, r.trace); err != nil {
			return err
		}
		setupS = append(setupS, d.Seconds())
		if i < reps-1 {
			if _, err := x.close(r); err != nil {
				return err
			}
			x = nil
			runtime.GC()
		}
	}

	g := x.gen
	runtime.GC() // measure the live node, not set-up garbage
	var heap heapSampler
	g.heap = &heap
	failed0, sent0 := g.failed, g.sent
	g.failFrom, g.failTo = sent0, sent0+rxFailN
	var untraced []rxBatch
	var tp *rxTrace
	window := time.Duration(r.seconds * float64(time.Second))
	if r.trace {
		untraced = g.batches(window / 2)
		var err error
		if tp, err = startRxTrace(x); err != nil {
			return err
		}
		window /= 2
	}
	batches := g.batches(window)
	heap.sample()
	if tp != nil {
		if err := tp.stop(); err != nil {
			return err
		}
	}
	snap, err := x.close(r)
	if err != nil {
		return err
	}

	r.res.Attempted = int64(g.sent - sent0)
	r.res.Failed = int64(g.failed - failed0)
	if tp != nil {
		tp.report(r, x, snap, untraced, batches)
		return nil
	}
	r.put("setup_s", "s", median(setupS))
	r.put("shuffles_per_s", "1/s", batchMedian(batches, (*rxBatch).rate))
	r.put("latency_ms_p50", "ms", batchMedian(batches, (*rxBatch).p50))
	r.put("latency_ms_p90", "ms", batchMedian(batches, (*rxBatch).p90))
	r.check(g.sent >= g.failTo, "window sent %d requests, fewer than the %d shuffle_fail_frac is taken over", g.sent-sent0, rxFailN)
	r.put("shuffle_fail_frac", "ratio", failShare(g.failedIn, rxFailN))
	r.put("heap_peak_mb", "MB", heap.peakMB())
	return nil
}
