package netsim

import (
	"testing"
	"time"

	"shadowmeter/internal/telemetry"
	"shadowmeter/internal/wire"
)

// countTap counts observed packets.
type countTap struct{ seen int }

func (c *countTap) Observe(*Network, *Router, *wire.Packet) { c.seen++ }

// sendThrough pushes one UDP packet from src to dst and drains the net.
func sendThrough(t *testing.T, n *Network, src, dst wire.Addr) {
	t.Helper()
	raw, err := wire.BuildUDP(
		wire.Endpoint{Addr: src, Port: 4000},
		wire.Endpoint{Addr: dst, Port: 53}, 64, 1, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if err := n.SendPacket(raw); err != nil {
		t.Fatal(err)
	}
	n.RunUntilIdle()
}

func TestTapsReturnsCopy(t *testing.T) {
	r := &Router{Name: "r1", Addr: wire.AddrFrom(10, 0, 0, 1)}
	n := New(Config{Start: t0, Path: linearPath(r)})
	dst := wire.AddrFrom(192, 0, 2, 1)
	n.AddHost(dst, HandlerFunc(func(*Network, *wire.Packet) {}))

	attached := &countTap{}
	r.AttachTap(attached)

	// Appending to the returned slice must not register the new tap.
	rogue := &countTap{}
	got := r.Taps()
	got = append(got, rogue)
	_ = got

	sendThrough(t, n, wire.AddrFrom(100, 0, 0, 1), dst)

	if attached.seen != 1 {
		t.Errorf("attached tap saw %d packets, want 1", attached.seen)
	}
	if rogue.seen != 0 {
		t.Errorf("tap appended to Taps() result saw %d packets, want 0 (internal slice leaked)", rogue.seen)
	}
	if len(r.Taps()) != 1 {
		t.Errorf("router has %d taps, want 1", len(r.Taps()))
	}
}

// metricValue extracts a scalar metric by name from a snapshot.
func metricValue(t *testing.T, reg *telemetry.Registry, name string) int64 {
	t.Helper()
	for _, m := range reg.Snapshot() {
		if m.Name == name {
			return m.Value
		}
	}
	t.Fatalf("metric %q not registered", name)
	return 0
}

func TestEventLoopMetrics(t *testing.T) {
	r := &Router{Name: "core-1", Addr: wire.AddrFrom(10, 0, 0, 1)}
	set := telemetry.NewSet()
	n := New(Config{Start: t0, Path: linearPath(r), Telemetry: set})
	if n.Telemetry() != set {
		t.Fatal("Telemetry() should return the configured set")
	}

	tap := &countTap{}
	r.AttachTap(tap)
	dst := wire.AddrFrom(192, 0, 2, 1)
	n.AddHost(dst, HandlerFunc(func(*Network, *wire.Packet) {}))

	sendThrough(t, n, wire.AddrFrom(100, 0, 0, 1), dst)

	reg := set.Registry
	if got := metricValue(t, reg, "netsim_packets_sent_total"); got != 1 {
		t.Errorf("packets_sent = %d, want 1", got)
	}
	if got := metricValue(t, reg, "netsim_packets_delivered_total"); got != 1 {
		t.Errorf("packets_delivered = %d, want 1", got)
	}
	if got := metricValue(t, reg, "netsim_packets_forwarded_total"); got != 1 {
		t.Errorf("packets_forwarded = %d, want 1", got)
	}
	disp := metricValue(t, reg, "netsim_events_dispatched_total")
	sched := metricValue(t, reg, "netsim_events_scheduled_total")
	if disp == 0 || disp != sched {
		t.Errorf("events dispatched=%d scheduled=%d, want equal and nonzero", disp, sched)
	}

	// The tap-observe family carries the router name label.
	for _, m := range reg.Snapshot() {
		if m.Name != "netsim_tap_observes_total" {
			continue
		}
		if len(m.Children) != 1 || m.Children[0].Label != "core-1" || m.Children[0].Value != 1 {
			t.Errorf("tap_observes children = %+v", m.Children)
		}
	}
}

func TestPrivateSetFallback(t *testing.T) {
	// No Telemetry in the config: the network creates its own set, so the
	// hot path never nil-checks and callers can still read the counters.
	n := New(Config{Start: t0})
	n.Schedule(time.Second, func() {})
	n.RunUntilIdle()
	if n.Telemetry() == nil {
		t.Fatal("Telemetry() must not be nil without an injected set")
	}
	if got := metricValue(t, n.Telemetry().Registry, "netsim_events_dispatched_total"); got != 1 {
		t.Errorf("events_dispatched = %d, want 1", got)
	}
}

// BenchmarkEventLoop measures raw dispatch throughput; events/sec derives
// from the shared registry counter rather than a local tally, so the
// bench also exercises the instrumented hot path.
func BenchmarkEventLoop(b *testing.B) {
	set := telemetry.NewSet()
	n := New(Config{Start: t0, Telemetry: set})
	reg := set.Registry
	dispatched := reg.Counter("netsim_events_dispatched_total", "")
	start := dispatched.Value()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var tick func()
		left := 100
		tick = func() {
			left--
			if left > 0 {
				n.Schedule(time.Millisecond, tick)
			}
		}
		n.Schedule(time.Millisecond, tick)
		n.RunUntilIdle()
	}
	b.StopTimer()
	total := dispatched.Value() - start
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkPacketForwarding measures end-to-end delivery through a
// three-router path with the telemetry counters live.
func BenchmarkPacketForwarding(b *testing.B) {
	routers := []*Router{
		{Name: "r1", Addr: wire.AddrFrom(10, 0, 0, 1)},
		{Name: "r2", Addr: wire.AddrFrom(10, 0, 0, 2)},
		{Name: "r3", Addr: wire.AddrFrom(10, 0, 0, 3)},
	}
	set := telemetry.NewSet()
	n := New(Config{Start: t0, Path: linearPath(routers...), Telemetry: set})
	dst := wire.AddrFrom(192, 0, 2, 1)
	n.AddHost(dst, HandlerFunc(func(*Network, *wire.Packet) {}))
	raw, err := wire.BuildUDP(
		wire.Endpoint{Addr: wire.AddrFrom(100, 0, 0, 1), Port: 4000},
		wire.Endpoint{Addr: dst, Port: 53}, 64, 1, []byte("payload"))
	if err != nil {
		b.Fatal(err)
	}
	delivered := set.Registry.Counter("netsim_packets_delivered_total", "")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := n.SendPacket(raw); err != nil {
			b.Fatal(err)
		}
		n.RunUntilIdle()
	}
	b.StopTimer()
	if delivered.Value() != int64(b.N) {
		b.Fatalf("delivered %d packets, want %d", delivered.Value(), b.N)
	}
}
