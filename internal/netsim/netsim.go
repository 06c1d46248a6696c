// Package netsim is a deterministic, discrete-event IPv4 network simulator:
// the stand-in for the real Internet that shadowmeter's measurement
// pipeline runs against.
//
// The simulator moves real serialized packets (internal/wire) across
// router paths with per-hop TTL decrement and ICMP Time Exceeded
// generation, which is exactly the substrate the paper's Phase II
// hop-by-hop traceroute needs. On-path devices attach to routers as Taps
// and see the same bytes a DPI middlebox would.
//
// The network owns the bytes of every packet it carries. Packets a world
// emits (Host sends, ICMP errors, SendUDP/SendTCP) are built into
// fixed-capacity buffers from a per-Network free list, and a buffer goes
// back to the list when its flight ends: delivered, expired (after the ICMP
// quote is copied out), lost, or undeliverable. Everything that sees packet
// bytes — taps, handlers, UDP services and TCP apps — therefore borrows
// them for the duration of its callback only; client reply callbacks
// receive their own copy.
//
// Time is virtual: a two-lane event queue (a FIFO for packet hops, a
// min-heap for everything else) advances a simulated clock, so a two-month
// measurement campaign with multi-day data-retention delays runs in
// milliseconds of wall-clock time. All execution is single goroutine and
// fully deterministic for a given seed and call order.
package netsim

import (
	"fmt"
	"math/rand"
	"time"

	"shadowmeter/internal/telemetry"
	"shadowmeter/internal/wire"
)

// Router is one forwarding hop. Routers decrement TTL, generate ICMP Time
// Exceeded when it expires, and expose attached Taps to every packet that
// arrives on their wire.
type Router struct {
	// Name is drawn from the fixed set minted at topology build time, so
	// it is a safe (bounded-cardinality) metric label.
	//
	//shadowlint:bounded
	Name string
	// Addr is the interface address exposed in ICMP error messages. A
	// router with ICMPSilent set never answers, modeling the hops that make
	// real traceroutes incomplete (Section 3 "Comparison and limitations").
	Addr       wire.Addr
	ICMPSilent bool

	taps []Tap
}

// AttachTap registers an on-path device at this router.
func (r *Router) AttachTap(t Tap) { r.taps = append(r.taps, t) }

// Taps returns a copy of the attached taps. Callers get their own slice:
// appending to (or reordering) the result cannot mutate routing state
// behind the simulator's back.
func (r *Router) Taps() []Tap { return append([]Tap(nil), r.taps...) }

// Tap is an on-path observer device: it inspects every packet arriving at
// its router. Taps must not mutate the packet, and its bytes are borrowed:
// the network recycles the buffer once the packet's flight ends, so a tap
// copies whatever it keeps. Taps may call back into the Network to
// schedule their own traffic (that is what a traffic-shadowing exhibitor
// does).
type Tap interface {
	Observe(net *Network, at *Router, pkt *wire.Packet)
}

// Handler terminates packets at a host address (resolver, web server,
// honeypot, vantage point...). The packet's transport payload has already
// been decoded by the network's parser. As for taps, the packet and its
// bytes are borrowed until Handle returns.
type Handler interface {
	Handle(net *Network, pkt *wire.Packet)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(net *Network, pkt *wire.Packet)

// Handle implements Handler.
func (f HandlerFunc) Handle(net *Network, pkt *wire.Packet) { f(net, pkt) }

// PathFunc returns the ordered router hops between two addresses, or nil if
// no route exists. It must be deterministic.
type PathFunc func(src, dst wire.Addr) []*Router

// Stats counts simulator activity.
type Stats struct {
	PacketsSent      int64
	PacketsDelivered int64
	PacketsLost      int64
	TTLExpired       int64
	ICMPSent         int64
	NoRoute          int64
	NoHandler        int64
	Events           int64
}

// Config parameterizes a Network.
type Config struct {
	// Start is the virtual-clock origin.
	Start time.Time
	// HopLatency is the one-way latency contributed by each router hop.
	// Zero selects DefaultHopLatency.
	HopLatency time.Duration
	// Path supplies routes. Nil means every src/dst pair is directly
	// connected (useful in unit tests).
	Path PathFunc
	// LossRate drops each packet independently at every hop with this
	// probability (failure injection; deterministic for a given LossSeed
	// and call order). 0 disables loss.
	LossRate float64
	// LossSeed seeds the loss coin.
	LossSeed int64
	// Telemetry receives the simulator's metrics and progress ticks. Nil
	// creates a private set, so the hot path never nil-checks.
	Telemetry *telemetry.Set
	// Arena, when non-nil, seeds the event/flight/packet-buffer pools and
	// the event-queue lanes from a previous world's harvest (see Arena).
	// Purely an allocation amortization: a world behaves identically with
	// or without one.
	Arena *Arena
}

// DefaultHopLatency approximates a wide-area per-hop delay.
const DefaultHopLatency = 8 * time.Millisecond

// Network is the simulator instance.
type Network struct {
	now time.Time
	seq int64
	// hops and timers are the two lanes of the event queue; drain merges
	// their heads into one (at, seq) order. See hopRing for why the hop
	// lane needs no sifting.
	hops   hopRing
	timers timerHeap

	hosts      map[wire.Addr]Handler
	pathFn     PathFunc
	hopLatency time.Duration
	lossRate   float64
	lossRNG    *rand.Rand

	stats  Stats
	parser wire.Parser
	// scratch is the single decode target for tap observation and
	// delivery. Taps and handlers receive &scratch and must not retain it
	// past their callback: the next dispatched packet overwrites it (the
	// same contract the shared parser's transport storage already set).
	scratch wire.Packet

	tele        *telemetry.Set
	m           netMetrics
	tapObserves map[*Router]*telemetry.Counter

	// freeEvents and freeFlights recycle the event-loop's two per-hop
	// objects. The worker-pool campaign runner hammers this path with one
	// world per goroutine; pooling keeps the steady state allocation-free.
	freeEvents  []*event
	freeFlights []*flight
	// freeBufs is the packet-buffer free list: empty slices of capacity
	// packetBufCap. Only buffers taken from it return to it, so it never
	// holds more than the world's peak number of packets in flight.
	freeBufs [][]byte

	maxEvents int64 // safety valve against runaway schedules; 0 = unlimited
}

// netMetrics holds the simulator's registered metric handles. They are
// plain (lock-free) variants: the event loop is single-goroutine.
type netMetrics struct {
	eventsScheduled  *telemetry.Counter
	eventsDispatched *telemetry.Counter
	queuePeak        *telemetry.Gauge
	queueDepth       *telemetry.Histogram
	packetsSent      *telemetry.Counter
	packetsForwarded *telemetry.Counter
	packetsDelivered *telemetry.Counter
	packetsLost      *telemetry.Counter
	ttlExpired       *telemetry.Counter
	icmpSent         *telemetry.Counter
	noRoute          *telemetry.Counter
	noHandler        *telemetry.Counter
	taps             *telemetry.CounterVec
}

// queueDepthBounds buckets event-queue depth by powers of four: deep
// enough to see full-scale campaigns, cheap enough to scan per event.
var queueDepthBounds = []float64{1, 4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144, 1048576}

func newNetMetrics(reg *telemetry.Registry) netMetrics {
	return netMetrics{
		eventsScheduled:  reg.Counter("netsim_events_scheduled_total", "events pushed onto the simulator heap"),
		eventsDispatched: reg.Counter("netsim_events_dispatched_total", "events popped and executed by the event loop"),
		queuePeak:        reg.Gauge("netsim_event_queue_peak", "high-water mark of the event-queue depth"),
		queueDepth:       reg.Histogram("netsim_event_queue_depth", "event-queue depth observed at each dispatch", queueDepthBounds),
		packetsSent:      reg.Counter("netsim_packets_sent_total", "packets injected at their source"),
		packetsForwarded: reg.Counter("netsim_packets_forwarded_total", "per-hop packet arrivals at routers"),
		packetsDelivered: reg.Counter("netsim_packets_delivered_total", "packets terminated at a registered handler"),
		packetsLost:      reg.Counter("netsim_packets_lost_total", "packets dropped by injected per-hop loss"),
		ttlExpired:       reg.Counter("netsim_ttl_expired_total", "packets whose TTL reached zero at a router"),
		icmpSent:         reg.Counter("netsim_icmp_time_exceeded_total", "ICMP Time Exceeded messages generated"),
		noRoute:          reg.Counter("netsim_no_route_total", "sends with no path to the destination"),
		noHandler:        reg.Counter("netsim_no_handler_total", "deliveries to an unregistered address"),
		taps:             reg.CounterVec("netsim_tap_observes_total", "packets shown to on-path taps, per router", "router"),
	}
}

// New creates a network from cfg.
func New(cfg Config) *Network {
	hl := cfg.HopLatency
	if hl == 0 {
		hl = DefaultHopLatency
	}
	tele := cfg.Telemetry
	if tele == nil {
		tele = telemetry.NewSet()
	}
	n := &Network{
		now:         cfg.Start,
		hosts:       make(map[wire.Addr]Handler),
		pathFn:      cfg.Path,
		hopLatency:  hl,
		lossRate:    cfg.LossRate,
		tele:        tele,
		m:           newNetMetrics(tele.Registry),
		tapObserves: make(map[*Router]*telemetry.Counter),
	}
	if tele.Tracer.Clock == nil {
		tele.Tracer.Clock = n.Now
	}
	if cfg.LossRate > 0 {
		n.lossRNG = rand.New(rand.NewSource(cfg.LossSeed))
	}
	if cfg.Arena != nil {
		cfg.Arena.attach(n)
	}
	return n
}

// Now returns the current virtual time.
func (n *Network) Now() time.Time { return n.now }

// Telemetry returns the simulator's telemetry set (the one from Config,
// or the private set created when none was supplied).
func (n *Network) Telemetry() *telemetry.Set { return n.tele }

// Stats returns a snapshot of simulator counters.
func (n *Network) Stats() Stats { return n.stats }

// SetMaxEvents bounds total processed events (0 disables the bound).
func (n *Network) SetMaxEvents(max int64) { n.maxEvents = max }

// AddHost registers handler as the terminator for addr. Registering an
// address twice replaces the handler.
func (n *Network) AddHost(addr wire.Addr, h Handler) {
	n.hosts[addr] = h
}

// RemoveHost deregisters an address.
func (n *Network) RemoveHost(addr wire.Addr) {
	delete(n.hosts, addr)
}

// HasHost reports whether addr terminates at a registered handler.
func (n *Network) HasHost(addr wire.Addr) bool {
	_, ok := n.hosts[addr]
	return ok
}

// Schedule runs fn after delay of virtual time. A negative delay runs at
// the current instant (still via the queue, preserving causal order).
func (n *Network) Schedule(delay time.Duration, fn func()) {
	e := n.newEvent()
	e.fn = fn
	n.scheduleEvent(delay, e)
}

// scheduleEvent queues a prepared event: on the hop lane when it is due
// exactly one hop latency from now, on the timer lane otherwise.
func (n *Network) scheduleEvent(delay time.Duration, e *event) {
	if delay < 0 {
		delay = 0
	}
	n.seq++
	e.at = n.now.Add(delay)
	q := queued{atNS: e.at.UnixNano(), seq: n.seq, e: e}
	if delay == n.hopLatency {
		n.hops.push(q)
	} else {
		n.timers.push(q)
	}
	n.m.eventsScheduled.Inc()
	n.m.queuePeak.SetMax(int64(n.Pending()))
}

// newEvent takes an event from the pool (or allocates the pool's next).
func (n *Network) newEvent() *event {
	if k := len(n.freeEvents); k > 0 {
		e := n.freeEvents[k-1]
		n.freeEvents = n.freeEvents[:k-1]
		return e
	}
	return &event{}
}

// releaseEvent clears an event's references and returns it to the pool.
func (n *Network) releaseEvent(e *event) {
	e.fn, e.flight = nil, nil
	e.udpHost, e.udpW = nil, nil
	n.freeEvents = append(n.freeEvents, e)
}

// newFlight takes a packet-flight from the pool and arms it at hop 0.
// pooled records that pkt came from the packet-buffer free list.
func (n *Network) newFlight(pkt []byte, pooled bool, origin wire.Addr, path []*Router) *flight {
	var f *flight
	if k := len(n.freeFlights); k > 0 {
		f = n.freeFlights[k-1]
		n.freeFlights = n.freeFlights[:k-1]
	} else {
		f = &flight{}
	}
	f.pkt, f.pooled, f.origin, f.path, f.hop = pkt, pooled, origin, path, 0
	return f
}

// releaseFlight ends a flight: its packet buffer goes back to the free
// list when it came from there, and the struct is pooled. Nothing may
// hold the packet's bytes past this point — every tap and handler has
// returned, and an ICMP error has already copied its quote.
func (n *Network) releaseFlight(f *flight) {
	if f.pooled {
		n.releaseBuf(f.pkt)
	}
	f.pkt, f.pooled, f.path = nil, false, nil
	n.freeFlights = append(n.freeFlights, f)
}

// packetBufCap is the capacity of a pooled packet buffer. It holds every
// packet the simulated fleet sends but the largest HTTP pages; a packet
// that does not fit is built into an exact-size buffer of its own, which
// the collector reclaims as before.
const packetBufCap = 512

// packetBuf returns an empty buffer to build a size-byte packet into: a
// recycled one from the free list (or a new one that will join the list),
// or nil when the packet will not fit one. The network owns a non-nil
// result; it goes back to the list when the packet's flight ends.
func (n *Network) packetBuf(size int) []byte {
	if size > packetBufCap {
		return nil
	}
	if k := len(n.freeBufs); k > 0 {
		b := n.freeBufs[k-1]
		n.freeBufs[k-1] = nil
		n.freeBufs = n.freeBufs[:k-1]
		return b
	}
	return make([]byte, 0, packetBufCap)
}

// releaseBuf returns a buffer taken from packetBuf to the free list.
func (n *Network) releaseBuf(b []byte) {
	n.freeBufs = append(n.freeBufs, b[:0])
}

// Arena carries a Network's recyclable scratch — the event, flight and
// packet-buffer free lists plus the drained backing arrays of both
// event-queue lanes (the hop ring and the timer heap) — across Network
// lifetimes. A campaign worker running many single-trial worlds in
// sequence attaches one arena to each world in turn, so the event loop's
// steady-state pools and lanes are grown once per worker instead of once
// per trial. Pooled objects are fully re-initialized on acquisition and
// hold no references after release, so reuse cannot leak state between
// worlds. Packet buffers are overwritten from the start by every build,
// and only a buffer whose flight has ended is ever on the list, so a world
// sees none of a previous world's bytes unless something broke the
// borrowing rule (see Tap) by keeping a view past its callback. An arena
// belongs to one goroutine at a time; hand-off between worlds must be
// externally ordered (the runner keeps one per worker).
type Arena struct {
	events  []*event
	flights []*flight
	bufs    [][]byte
	hops    []queued
	timers  timerHeap
}

// attach seeds n's pools and lanes from the arena, leaving the arena
// empty. New calls it before any event is scheduled.
func (a *Arena) attach(n *Network) {
	n.freeEvents, a.events = a.events, nil
	n.freeFlights, a.flights = a.flights, nil
	n.freeBufs, a.bufs = a.bufs, nil
	n.hops.buf, a.hops = a.hops, nil
	n.timers, a.timers = a.timers, nil
}

// Harvest reclaims n's pools into the arena once the world has drained
// (every event dispatched, every flight landed). The Network must not be
// run again afterwards. The lane backings move only when both lanes are
// empty: undispatched events left behind by a truncated run stay with the
// Network, lanes and the buffers of packets still in flight included —
// only the released free lists move — so harvesting a truncated world is
// safe, just less fruitful.
func (a *Arena) Harvest(n *Network) {
	if a == nil || n == nil {
		return
	}
	a.events, n.freeEvents = n.freeEvents, nil
	a.flights, n.freeFlights = n.freeFlights, nil
	a.bufs, n.freeBufs = n.freeBufs, nil
	if n.Pending() == 0 {
		a.hops, n.hops = n.hops.buf, hopRing{}
		a.timers, n.timers = n.timers[:0], nil
	}
}

// SendPacket injects a serialized IPv4 packet at its source address. The
// packet traverses the path to its destination hop by hop; taps observe it
// at every router it reaches; TTL expiry produces ICMP Time Exceeded back
// to the source. Errors are returned only for unparseable packets —
// routing failures are counted in Stats, as on the real Internet the
// sender learns nothing synchronously.
func (n *Network) SendPacket(raw []byte) error {
	// Copy: the caller may reuse its buffer, and routers mutate TTL.
	buf := n.packetBuf(len(raw))
	return n.send(append(buf, raw...), buf != nil)
}

// SendPacketOwned is SendPacket for buffers the caller hands over: the
// network takes ownership of raw (routers mutate its TTL in place), so the
// caller must not touch the buffer afterwards. The buffer never joins the
// network's free list — only buffers the network built do — so it is
// simply dropped when its flight ends. Freshly built packets take this
// path to skip SendPacket's defensive copy.
func (n *Network) SendPacketOwned(raw []byte) error {
	return n.send(raw, false)
}

// SendUDP builds an IPv4/UDP packet into a network-owned buffer and
// injects it at its source. A packet that cannot be built (a payload past
// the IPv4 size limit) is dropped, as an oversized send is on the wire.
// payload is copied; the caller keeps it.
func (n *Network) SendUDP(src, dst wire.Endpoint, ttl uint8, id uint16, payload []byte) {
	buf := n.packetBuf(wire.IPv4HeaderLen + wire.UDPHeaderLen + len(payload))
	raw, err := wire.AppendUDP(buf, src, dst, ttl, id, payload)
	n.emit(buf, raw, err)
}

// SendTCP is SendUDP for one TCP segment.
func (n *Network) SendTCP(src, dst wire.Endpoint, ttl uint8, id uint16, flags uint8, seq, ack uint32, payload []byte) {
	buf := n.packetBuf(wire.IPv4HeaderLen + wire.TCPHeaderLen + len(payload))
	raw, err := wire.AppendTCP(buf, src, dst, ttl, id, flags, seq, ack, payload)
	n.emit(buf, raw, err)
}

// emit injects a packet built into buf (nil when the packet was too large
// for a pooled buffer), or recycles buf when the build failed.
func (n *Network) emit(buf, raw []byte, err error) {
	if err != nil {
		if buf != nil {
			n.releaseBuf(buf)
		}
		return
	}
	if err := n.send(raw, buf != nil); err != nil {
		panic(err) // a successful build always parses
	}
}

// send injects raw, which the network now owns; pooled marks a buffer from
// the free list, to be recycled when the packet's flight ends.
func (n *Network) send(raw []byte, pooled bool) error {
	var probe wire.IPv4
	if err := probe.DecodeFromBytes(raw); err != nil {
		if pooled {
			n.releaseBuf(raw)
		}
		return fmt.Errorf("netsim: refusing to send unparseable packet: %w", err)
	}
	n.stats.PacketsSent++
	n.m.packetsSent.Inc()
	src, dst := probe.Src, probe.Dst

	var path []*Router
	if n.pathFn != nil {
		path = n.pathFn(src, dst)
		if path == nil && src != dst {
			// No route at all (distinct from the empty direct path). This
			// holds even when dst is a registered host: delivering hop-free
			// would bypass every tap and the topology's own verdict.
			n.stats.NoRoute++
			n.m.noRoute.Inc()
			if pooled {
				n.releaseBuf(raw)
			}
			return nil
		}
	}
	n.forward(n.newFlight(raw, pooled, src, path))
	return nil
}

// Inject sends a packet that was just produced by a successful
// Serialize/BuildUDP call. SendPacket's only error is an unparseable
// buffer, which at an Inject call site is a construction bug — panic
// loudly instead of dropping the packet silently.
func (n *Network) Inject(raw []byte) {
	if err := n.SendPacket(raw); err != nil {
		panic(err)
	}
}

// InjectOwned is Inject without the defensive copy: ownership of raw
// transfers to the network. Use it when the buffer was freshly built for
// this exact send.
func (n *Network) InjectOwned(raw []byte) {
	if err := n.SendPacketOwned(raw); err != nil {
		panic(err)
	}
}

// flight is one packet in transit: the serialized bytes, the origin
// address (ICMP errors return there), the router path, and the next hop
// index. Flights replace the per-hop closure chain of the original event
// loop: one pooled struct rides the whole path, so forwarding a packet
// over k hops schedules k+1 events without allocating any of them in the
// steady state.
type flight struct {
	pkt    []byte
	pooled bool // pkt came from the free list and returns there
	origin wire.Addr
	path   []*Router
	hop    int // next hop index; len(path) means delivery
}

// forward schedules the flight's next arrival: hop f.hop of its path, or
// the destination when the path is exhausted.
//
//shadowlint:hotpath
func (n *Network) forward(f *flight) {
	e := n.newEvent()
	e.flight = f
	n.scheduleEvent(n.hopLatency, e)
}

// stepFlight dispatches one flight event.
func (n *Network) stepFlight(f *flight) {
	if f.hop < len(f.path) {
		n.arriveAtRouter(f)
		return
	}
	n.deliver(f.pkt)
	n.releaseFlight(f) // every handler has returned: the bytes are free
}

func (n *Network) arriveAtRouter(f *flight) {
	if n.lossRNG != nil && n.lossRNG.Float64() < n.lossRate {
		n.stats.PacketsLost++
		n.m.packetsLost.Inc()
		n.releaseFlight(f)
		return
	}
	r := f.path[f.hop]
	n.m.packetsForwarded.Inc()
	// DPI taps see the packet on arrival, before the TTL check: a device on
	// the wire observes bytes regardless of whether the router then drops
	// them. This is what makes Phase II's "first TTL that triggers
	// shadowing = observer hop" inference sound.
	if len(r.taps) > 0 {
		if err := n.parser.Decode(f.pkt, &n.scratch); err == nil {
			n.tapCounter(r).Add(int64(len(r.taps)))
			for _, t := range r.taps {
				t.Observe(n, r, &n.scratch)
			}
		}
	}
	ttl, err := wire.DecrementTTL(f.pkt)
	if err != nil {
		n.releaseFlight(f)
		return // malformed in flight; drop silently
	}
	if ttl == 0 {
		n.stats.TTLExpired++
		n.m.ttlExpired.Inc()
		if !r.ICMPSilent {
			n.sendTimeExceeded(r, f.origin, f.pkt, f.hop)
		}
		n.releaseFlight(f)
		return
	}
	f.hop++
	n.forward(f)
}

// tapCounter resolves (and caches) the per-router tap-observation
// counter, labeled by router name.
func (n *Network) tapCounter(r *Router) *telemetry.Counter {
	if c, ok := n.tapObserves[r]; ok {
		return c
	}
	c := n.m.taps.With(r.Name)
	n.tapObserves[r] = c
	return c
}

// sendTimeExceeded generates the ICMP error for a probe that expired at
// hop index hop of its path.
func (n *Network) sendTimeExceeded(r *Router, origin wire.Addr, expired []byte, hop int) {
	// Build the message directly into its packet buffer: the quote aliases
	// the expired packet only until AppendICMP copies it (the caller
	// recycles the expired buffer right after), so the intermediate copy
	// wire.NewTimeExceeded would make is unnecessary here.
	quote := expired
	if len(quote) > wire.TimeExceededQuoteLen {
		quote = quote[:wire.TimeExceededQuoteLen]
	}
	te := wire.ICMP{Type: wire.ICMPTimeExceeded}
	buf := n.packetBuf(wire.IPv4HeaderLen + wire.ICMPHeaderLen + len(quote))
	raw, err := wire.AppendICMP(buf, r.Addr, origin, 64, 0, &te, quote)
	if err != nil {
		if buf != nil {
			n.releaseBuf(buf)
		}
		return
	}
	n.stats.ICMPSent++
	n.m.icmpSent.Inc()
	// The error message returns over the reverse path; the measurement only
	// needs its eventual arrival at the origin, so model the return trip as
	// a direct delayed delivery proportional to the forward distance: the
	// probe crossed hop+1 links to reach this router, and the error crosses
	// as many on the way back. Per-TTL traceroute RTTs therefore increase
	// with hop distance, as they do on the real Internet.
	f := n.newFlight(raw, buf != nil, r.Addr, nil)
	e := n.newEvent()
	e.flight = f
	n.scheduleEvent(time.Duration(hop+1)*n.hopLatency, e)
}

func (n *Network) deliver(pkt []byte) {
	if err := n.parser.Decode(pkt, &n.scratch); err != nil {
		return
	}
	h, ok := n.hosts[n.scratch.IP.Dst]
	if !ok {
		n.stats.NoHandler++
		n.m.noHandler.Inc()
		return
	}
	n.stats.PacketsDelivered++
	n.m.packetsDelivered.Inc()
	h.Handle(n, &n.scratch)
}

// dispatch executes one popped event and recycles it. The event's payload
// is captured before release so a handler scheduling new work can reuse
// the pooled object immediately. It is the event-loop root: everything it
// reaches — flight hops, handler dispatch, scheduled closures — runs on
// the world's single event-loop goroutine.
//
//shadowlint:hotpath
//shadowlint:eventloop
func (n *Network) dispatch(e *event) {
	f, fn := e.flight, e.fn
	uh, uw, ugen := e.udpHost, e.udpW, e.udpGen
	n.releaseEvent(e)
	if f != nil {
		n.stepFlight(f)
		return
	}
	if uw != nil {
		uh.udpTimeout(n, uw, ugen)
		return
	}
	fn()
}

// Run processes events until the queue is empty or the virtual clock would
// pass deadline. It returns the number of events processed.
func (n *Network) Run(deadline time.Time) int64 {
	processed, truncated := n.drain(deadline, true)
	// Fast-forward to the deadline only when no due event is left behind.
	// A maxEvents stop leaves unprocessed events; jumping the clock past
	// them would make a later run dispatch them with timestamps in the past.
	if !truncated && deadline.After(n.now) {
		n.now = deadline
	}
	return processed
}

// RunUntilIdle drains the event queue completely: no deadline, and so no
// fast-forward of the clock past the last event.
func (n *Network) RunUntilIdle() int64 {
	processed, _ := n.drain(time.Time{}, false)
	return processed
}

// Pending reports the number of queued events.
func (n *Network) Pending() int { return n.hops.n + len(n.timers) }

// drain is the event loop shared by Run and RunUntilIdle. It dispatches
// events in (at, seq) order — each time the earlier of the two lane heads
// — until both lanes are empty, the next event falls after deadline (when
// bounded), or the maxEvents valve stops it. The valve is checked before
// the pop, so once it has tripped no later call dispatches anything;
// truncated reports that it stopped the loop with a due event pending.
func (n *Network) drain(deadline time.Time, bounded bool) (processed int64, truncated bool) {
	for {
		pending := n.Pending()
		if pending == 0 {
			return processed, false
		}
		fromHops := n.hops.n > 0 && (len(n.timers) == 0 || n.hops.front().before(&n.timers[0]))
		var next *event
		if fromHops {
			next = n.hops.front().e
		} else {
			next = n.timers[0].e
		}
		if bounded && next.at.After(deadline) {
			return processed, false
		}
		if n.maxEvents > 0 && n.stats.Events >= n.maxEvents {
			return processed, true
		}
		if fromHops {
			n.hops.pop()
		} else {
			n.timers.pop()
		}
		if next.at.After(n.now) {
			n.now = next.at
		}
		n.m.queueDepth.Observe(float64(pending))
		n.dispatch(next)
		processed++
		n.stats.Events++
		n.m.eventsDispatched.Inc()
	}
}

// event is one queued occurrence: a generic callback (fn), a packet-flight
// step (flight), or a typed UDP request timeout (udpW). Exactly one of the
// three is set. The typed timeout exists because SendUDPRequest fires on
// every probe: carrying the waiter and its generation in plain fields
// costs nothing, where the equivalent closure allocated once per request.
// Events are pooled by the Network; they live only between scheduleEvent
// and dispatch. Their sort key lives beside them in the lane (queued).
type event struct {
	at     time.Time
	fn     func()
	flight *flight

	udpHost *Host
	udpW    *udpWaiter
	udpGen  uint64
}

// queued is one lane slot: an event with its sort key inline, so the lane
// merge and the heap sifts compare plain ints without touching the event.
type queued struct {
	atNS int64 // e.at.UnixNano()
	seq  int64 // FIFO tiebreak for simultaneous events
	e    *event
}

// before orders slots by (atNS, seq): the dispatch order.
func (q *queued) before(r *queued) bool {
	if q.atNS != r.atNS {
		return q.atNS < r.atNS
	}
	return q.seq < r.seq
}

// hopRing is the hop lane: a FIFO ring of the events scheduled exactly one
// hop latency ahead, which includes every router arrival and delivery. It
// is already in (atNS, seq) order without sifting: the clock never moves
// backwards and seq strictly increases, so each push carries a key no
// smaller than the one before it.
type hopRing struct {
	buf  []queued // len is zero or a power of two
	head int
	n    int
}

func (r *hopRing) front() *queued { return &r.buf[r.head] }

func (r *hopRing) push(q queued) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = q
	r.n++
}

func (r *hopRing) pop() {
	r.buf[r.head] = queued{}
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
}

// grow doubles a full ring, unrolling it so the oldest slot lands at 0.
func (r *hopRing) grow() {
	buf := make([]queued, max(256, 2*len(r.buf)))
	k := copy(buf, r.buf[r.head:])
	copy(buf[k:], r.buf[:r.head])
	r.buf, r.head = buf, 0
}

// timerHeap is the timer lane: a binary min-heap by (atNS, seq) of every
// event due at any delay but one hop latency — Schedule callbacks, UDP
// request timeouts and the ICMP returns from past the first router.
type timerHeap []queued

func (h *timerHeap) push(q queued) {
	*h = append(*h, q)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !q.before(&s[p]) {
			break
		}
		s[i] = s[p]
		i = p
	}
	s[i] = q
}

// pop removes the root: the last slot sifts down from the top.
func (h *timerHeap) pop() {
	s := *h
	last := len(s) - 1
	q := s[last]
	s[last] = queued{}
	s = s[:last]
	*h = s
	i := 0
	for {
		c := 2*i + 1
		if c >= last {
			break
		}
		if c+1 < last && s[c+1].before(&s[c]) {
			c++
		}
		if !s[c].before(&q) {
			break
		}
		s[i] = s[c]
		i = c
	}
	if last > 0 {
		s[i] = q
	}
}
