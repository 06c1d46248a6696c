package netsim

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"

	"shadowmeter/internal/telemetry"
	"shadowmeter/internal/wire"
)

// The two-lane queue must dispatch in exactly the order one queue sorted
// by (at, seq) would. These tests hold it to that: against a reference
// loop over a plainly sorted slice, at a cross-lane tie, across an arena
// hand-off, and at locate's queue depth in a benchmark.

const diffHop = 10 * time.Millisecond

var (
	diffSrc = wire.AddrFrom(100, 0, 0, 1)
	diffDst = wire.AddrFrom(192, 0, 2, 1)
)

// diffWorld is a seeded random schedule over a four-router path: callbacks
// that schedule more callbacks and send packets, with delays drawn to land
// on both lanes and on their boundary. Every dispatched event leaves one
// line in log, stamped with the virtual time: a callback logs itself, a
// router arrival logs through the tap on every router, a delivery or an
// ICMP return logs at its handler.
type diffWorld struct {
	n      *Network
	rng    *rand.Rand
	log    []string
	nextID int
	budget int
}

func newDiffWorld(seed int64) *diffWorld {
	w := &diffWorld{rng: rand.New(rand.NewSource(seed)), budget: 400}
	routers := make([]*Router, 4)
	for i := range routers {
		routers[i] = &Router{Name: fmt.Sprintf("r%d", i+1), Addr: wire.AddrFrom(10, 0, 0, byte(i+1))}
		routers[i].AttachTap(w)
	}
	w.n = New(Config{Start: t0, HopLatency: diffHop, Path: linearPath(routers...)})
	w.n.AddHost(diffSrc, HandlerFunc(func(n *Network, pkt *wire.Packet) {
		if pkt.ICMP == nil {
			w.record("src: non-ICMP packet")
			return
		}
		q, err := pkt.ICMP.QuotedIPv4()
		if err != nil {
			w.record("src: bad quote: %v", err)
			return
		}
		w.record("icmp from %v for id=%d", pkt.IP.Src, q.ID)
	}))
	w.n.AddHost(diffDst, HandlerFunc(func(n *Network, pkt *wire.Packet) {
		w.record("deliver id=%d", pkt.IP.ID)
		if w.rng.Intn(2) == 0 {
			w.spawn()
		}
	}))
	return w
}

func (w *diffWorld) Observe(n *Network, at *Router, pkt *wire.Packet) {
	w.record("%s sees id=%d ttl=%d", at.Name, pkt.IP.ID, pkt.IP.TTL)
}

func (w *diffWorld) record(format string, args ...any) {
	w.log = append(w.log, fmt.Sprintf("%v ", w.n.Now().Sub(t0))+fmt.Sprintf(format, args...))
}

// delay draws negative, zero, exactly-one-hop, one-hop±1ns, whole-hop
// multiple and arbitrary delays.
func (w *diffWorld) delay() time.Duration {
	switch w.rng.Intn(7) {
	case 0:
		return -time.Duration(1+w.rng.Intn(5)) * time.Millisecond
	case 1:
		return 0
	case 2:
		return diffHop
	case 3:
		return diffHop - 1
	case 4:
		return diffHop + 1
	case 5:
		return time.Duration(1+w.rng.Intn(4)) * diffHop
	default:
		return time.Duration(w.rng.Int63n(int64(5 * diffHop)))
	}
}

// spawn sends one packet (a TTL of 1 to 4 expires on the path and comes
// back as ICMP; 5 or 6 is delivered) or schedules one callback that
// spawns up to two more when it fires, until the budget runs out.
func (w *diffWorld) spawn() {
	if w.budget == 0 {
		return
	}
	w.budget--
	w.nextID++
	id := w.nextID
	if w.rng.Intn(3) == 0 {
		ttl := uint8(1 + w.rng.Intn(6))
		raw, err := wire.BuildUDP(wire.Endpoint{Addr: diffSrc, Port: 1},
			wire.Endpoint{Addr: diffDst, Port: 2}, ttl, uint16(id), nil)
		if err != nil {
			panic(err)
		}
		w.n.InjectOwned(raw)
		return
	}
	w.n.Schedule(w.delay(), func() {
		w.record("cb %d", id)
		for k := w.rng.Intn(3); k > 0; k-- {
			w.spawn()
		}
	})
}

// diffLoop is the event loop a diffWorld is driven with.
type diffLoop struct {
	run     func(deadline time.Time) int64
	idle    func() int64
	pending func() int
}

// drive plays the scenario: deadline segments, more work scheduled from
// outside, a maxEvents truncation, a call after the trip, then a resume.
// Each loop call's result is logged next to the dispatches.
func (w *diffWorld) drive(l diffLoop) {
	note := func(what string, got int64) {
		w.record("%s processed=%d pending=%d", what, got, l.pending())
	}
	for i := 0; i < 30; i++ {
		w.spawn()
	}
	note("run", l.run(t0.Add(3*diffHop)))
	note("run", l.run(t0.Add(7*diffHop+diffHop/2)))
	for i := 0; i < 10; i++ {
		w.spawn()
	}
	w.n.SetMaxEvents(w.n.Stats().Events + 37)
	note("truncated", l.idle())
	note("tripped", l.idle())
	w.n.SetMaxEvents(0)
	note("run", l.run(t0.Add(20*diffHop)))
	note("idle", l.idle())
}

// refQueue is the reference event loop: before every step it moves
// whatever the lanes hold into one slice sorted by (atNS, seq) and
// dispatches the head with the Network's own dispatch. It keeps Run's and
// RunUntilIdle's contract (deadline, maxEvents valve, fast-forward) and
// observes the queue-depth histogram the same way, but it tracks the peak
// itself: the Network's own gauge only ever sees the lanes.
type refQueue struct {
	n       *Network
	pending []queued
	peak    int
}

func (r *refQueue) absorb() {
	for r.n.hops.n > 0 {
		r.pending = append(r.pending, *r.n.hops.front())
		r.n.hops.pop()
	}
	for len(r.n.timers) > 0 {
		r.pending = append(r.pending, r.n.timers[0])
		r.n.timers.pop()
	}
	sort.Slice(r.pending, func(i, j int) bool { return r.pending[i].before(&r.pending[j]) })
	r.peak = max(r.peak, len(r.pending))
}

func (r *refQueue) loop(deadline time.Time, bounded bool) int64 {
	n := r.n
	var processed int64
	truncated := false
	for {
		r.absorb()
		if len(r.pending) == 0 {
			break
		}
		next := r.pending[0].e
		if bounded && next.at.After(deadline) {
			break
		}
		if n.maxEvents > 0 && n.stats.Events >= n.maxEvents {
			truncated = true
			break
		}
		r.pending = slices.Delete(r.pending, 0, 1)
		if next.at.After(n.now) {
			n.now = next.at
		}
		n.m.queueDepth.Observe(float64(len(r.pending) + 1))
		n.dispatch(next)
		processed++
		n.stats.Events++
	}
	if bounded && !truncated && deadline.After(n.now) {
		n.now = deadline
	}
	return processed
}

func TestQueueMatchesSortedReference(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		got := newDiffWorld(seed)
		got.drive(diffLoop{run: got.n.Run, idle: got.n.RunUntilIdle, pending: got.n.Pending})

		want := newDiffWorld(seed)
		ref := &refQueue{n: want.n}
		want.drive(diffLoop{
			run:     func(d time.Time) int64 { return ref.loop(d, true) },
			idle:    func() int64 { return ref.loop(time.Time{}, false) },
			pending: func() int { return len(ref.pending) + want.n.Pending() },
		})

		if !slices.Equal(got.log, want.log) {
			for i := range min(len(got.log), len(want.log)) {
				if got.log[i] != want.log[i] {
					t.Fatalf("seed %d: dispatch %d = %q, reference %q", seed, i, got.log[i], want.log[i])
				}
			}
			t.Fatalf("seed %d: %d log lines, reference %d", seed, len(got.log), len(want.log))
		}
		if got.n.Stats() != want.n.Stats() {
			t.Errorf("seed %d: stats %+v, reference %+v", seed, got.n.Stats(), want.n.Stats())
		}
		if g, w := got.n.m.queuePeak.Value(), int64(ref.peak); g != w {
			t.Errorf("seed %d: netsim_event_queue_peak = %d, reference %d", seed, g, w)
		}
		g, w := queueDepth(t, got.n), queueDepth(t, want.n)
		if !slices.Equal(g.Counts, w.Counts) || g.Count != w.Count || g.Sum != w.Sum {
			t.Errorf("seed %d: netsim_event_queue_depth counts %v sum %v, reference %v sum %v",
				seed, g.Counts, g.Sum, w.Counts, w.Sum)
		}
	}
}

// queueDepth snapshots the netsim_event_queue_depth histogram.
func queueDepth(t *testing.T, n *Network) *telemetry.HistogramSnapshot {
	t.Helper()
	for _, m := range n.Telemetry().Registry.Snapshot() {
		if m.Name == "netsim_event_queue_depth" {
			return m.Hist
		}
	}
	t.Fatal("netsim_event_queue_depth not registered")
	return nil
}

func TestScheduleOrderingAcrossLanes(t *testing.T) {
	// Three events share the instant 20ms, scheduled in this order: a timer
	// from t0, a hop-lane event from 10ms, a timer from 12ms. FIFO among
	// equals must hold across the lanes.
	n := New(Config{Start: t0, HopLatency: diffHop})
	var order []string
	n.Schedule(2*diffHop, func() { order = append(order, "timer from 0") })
	n.Schedule(diffHop, func() {
		n.Schedule(diffHop, func() { order = append(order, "hop from 10ms") })
		if n.hops.n != 1 {
			t.Errorf("a one-hop delay queued %d events on the hop lane, want 1", n.hops.n)
		}
	})
	n.Schedule(12*time.Millisecond, func() {
		n.Schedule(8*time.Millisecond, func() { order = append(order, "timer from 12ms") })
	})
	n.RunUntilIdle()
	want := []string{"timer from 0", "hop from 10ms", "timer from 12ms"}
	if !slices.Equal(order, want) {
		t.Errorf("order = %q, want %q", order, want)
	}
}

// mallocs counts the heap allocations f makes.
func mallocs(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

func TestArenaRoundTrip(t *testing.T) {
	routers := []*Router{
		{Name: "r1", Addr: wire.AddrFrom(10, 0, 0, 1)},
		{Name: "r2", Addr: wire.AddrFrom(10, 0, 0, 2)},
		{Name: "r3", Addr: wire.AddrFrom(10, 0, 0, 3)},
	}
	newWorld := func(a *Arena) *Network {
		n := New(Config{Start: t0, Path: linearPath(routers...), Arena: a})
		n.AddHost(diffDst, HandlerFunc(func(*Network, *wire.Packet) {}))
		return n
	}
	// A burst deep enough to grow both lanes: 512 packets in flight at
	// once (hop lane) and 512 timers (timer lane).
	const burst = 512
	packets := func() [][]byte {
		out := make([][]byte, burst)
		for i := range out {
			raw, err := wire.BuildUDP(wire.Endpoint{Addr: diffSrc, Port: 1},
				wire.Endpoint{Addr: diffDst, Port: 2}, 64, uint16(i), []byte("payload"))
			if err != nil {
				t.Fatal(err)
			}
			out[i] = raw
		}
		return out
	}
	noop := func() {}
	// reqrep runs a burst of request/reply exchanges through Hosts, whose
	// packets are built into the network's own pooled buffers.
	reqrep := func(n *Network) {
		client := NewHost(n, diffSrc)
		server := NewHost(n, diffDst)
		server.ServeUDP(53, func(n *Network, from wire.Endpoint, req []byte) []byte { return req })
		for i := 0; i < burst; i++ {
			client.SendUDPRequest(n, wire.Endpoint{Addr: diffDst, Port: 53}, []byte("query"), UDPRequestOpts{})
		}
		n.RunUntilIdle()
	}
	load := func(n *Network, pkts [][]byte) {
		for _, raw := range pkts {
			n.InjectOwned(raw)
		}
		for i := 0; i < burst; i++ {
			n.Schedule(time.Duration(i+1)*time.Second, noop)
		}
	}

	arena := &Arena{}
	first := newWorld(arena)
	external := packets()
	load(first, external)
	first.RunUntilIdle()
	reqrep(first)
	arena.Harvest(first)
	if len(arena.hops) == 0 || cap(arena.timers) == 0 {
		t.Fatalf("harvest of a drained world took hop backing %d, timer backing %d; want both",
			len(arena.hops), cap(arena.timers))
	}
	// The request/reply burst filled the buffer list; the externally built
	// packets, handed over with InjectOwned, never entered it.
	pooled := len(arena.bufs)
	if pooled == 0 {
		t.Fatal("harvest of a drained world took no packet buffers")
	}
	for _, b := range arena.bufs {
		if cap(b) != packetBufCap {
			t.Fatalf("arena holds a buffer of cap %d, want %d", cap(b), packetBufCap)
		}
		for _, raw := range external {
			if &b[:1][0] == &raw[0] {
				t.Fatal("an externally built packet entered the buffer pool")
			}
		}
	}

	// The second world's forward path is allocation-free from its first
	// send: pools and lanes all arrive pre-grown.
	second := newWorld(arena)
	pkts := packets()
	if got := mallocs(func() { load(second, pkts); second.RunUntilIdle() }); got != 0 {
		t.Errorf("second world allocated %d times on its first burst, want 0", got)
	}
	// A world without an arena does allocate for the same burst, or the
	// check above proves nothing.
	// Its request/reply burst builds every packet into a harvested buffer:
	// the list ends the burst exactly as long as it arrived.
	reqrep(second)
	if len(second.freeBufs) != pooled {
		t.Errorf("second world's buffer list = %d after the burst, want the %d it was handed (no new buffer)",
			len(second.freeBufs), pooled)
	}
	cold := newWorld(nil)
	pkts = packets()
	if got := mallocs(func() { load(cold, pkts); cold.RunUntilIdle() }); got == 0 {
		t.Error("a world without an arena did not allocate either")
	}

	// A truncated world keeps its lanes; only the free lists move.
	arena.Harvest(second)
	trunc := newWorld(arena)
	load(trunc, packets())
	// Every packet lands (three routers plus delivery: four events each)
	// and 100 timers fire; then a few packets are sent into the cut.
	trunc.SetMaxEvents(4*burst + 100)
	trunc.RunUntilIdle()
	for _, raw := range packets()[:10] {
		trunc.InjectOwned(raw)
	}
	hops, timers := trunc.hops.n, len(trunc.timers)
	if hops == 0 || timers == 0 {
		t.Fatalf("truncation left %d hop and %d timer events; want both lanes non-empty", hops, timers)
	}
	arena.Harvest(trunc)
	if arena.hops != nil || arena.timers != nil {
		t.Error("harvest of a truncated world took its lane backings")
	}
	if len(arena.events) == 0 || len(arena.flights) == 0 {
		t.Error("harvest of a truncated world left its free lists behind")
	}
	if trunc.hops.n != hops || len(trunc.timers) != timers {
		t.Errorf("truncated world lanes = %d hop, %d timer after harvest; want %d, %d",
			trunc.hops.n, len(trunc.timers), hops, timers)
	}
}

// BenchmarkEventQueue measures dispatch at locate's queue depth: 64k
// pending events, nine of ten on the hop lane. Every callback is built
// before the timer starts and re-arms itself, so the depth holds steady
// and the loop itself allocates nothing.
func BenchmarkEventQueue(b *testing.B) {
	const depth = 1 << 16
	hop := DefaultHopLatency
	n := New(Config{Start: t0})
	rng := rand.New(rand.NewSource(1))
	left := depth * 4 // warm-up re-arms; reset to b.N below
	for i := 0; i < depth; i++ {
		d := hop
		if i%10 == 0 {
			// A timer period between half a hop and one and a half,
			// never exactly one hop.
			for d == hop {
				d = hop/2 + time.Duration(rng.Int63n(int64(hop)))
			}
		}
		var fn func()
		fn = func() {
			if left > 0 {
				left--
				n.Schedule(d, fn)
			}
		}
		n.Schedule(time.Duration(rng.Int63n(int64(hop))), fn)
	}
	// Warm up until every callback has re-armed onto its own lane.
	n.Run(t0.Add(3 * hop))
	left = b.N
	start := n.Stats().Events
	b.ReportAllocs()
	b.ResetTimer()
	n.RunUntilIdle()
	b.StopTimer()
	dispatched := n.Stats().Events - start
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(dispatched), "ns/event")
}
