package netsim

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"shadowmeter/internal/wire"
)

// TestBufferReuseKeepsBytes runs interleaved request/reply traffic — UDP and
// TCP, a distinct payload per request — plus TTL-limited probes over a
// three-router path, with sends spaced closer than one hop so that many
// packets are in flight at once and every buffer is recycled many times.
// Every service and callback must see exactly the bytes sent, every ICMP
// quote must match the probe that expired, and the free list must end up
// far smaller than the number of packets built: reuse really happened.
func TestBufferReuseKeepsBytes(t *testing.T) {
	routers := []*Router{
		{Name: "r1", Addr: wire.AddrFrom(10, 0, 0, 1)},
		{Name: "r2", Addr: wire.AddrFrom(10, 0, 0, 2)},
		{Name: "r3", Addr: wire.AddrFrom(10, 0, 0, 3)},
	}
	n := New(Config{Start: t0, Path: linearPath(routers...)})
	client := NewHost(n, wire.AddrFrom(100, 0, 0, 1))
	server := NewHost(n, wire.AddrFrom(192, 0, 2, 53))

	const requests = 300
	// The payload of request i varies in content and length, so a reply
	// built from (or a quote taken of) the wrong buffer cannot match.
	payload := func(kind string, i int) []byte {
		return []byte(fmt.Sprintf("%s-%04d-%s", kind, i, bytes.Repeat([]byte{byte('a' + i%26)}, i%97)))
	}
	reply := func(req []byte) []byte { return append([]byte("re:"), req...) }
	index := func(req []byte) int {
		var i int
		if len(req) < 9 {
			return 0
		}
		fmt.Sscanf(string(req[5:9]), "%04d", &i) // a garbled index fails the comparison below
		return i
	}

	// Each service sends a notice of its own before it reads the request,
	// so a request buffer recycled too early would be overwritten by then.
	sink := NewHost(n, wire.AddrFrom(192, 0, 2, 99))
	notice := bytes.Repeat([]byte{0xA5}, 200)
	notify := func(n *Network) {
		server.SendUDPOneShot(n, wire.Endpoint{Addr: sink.Addr, Port: 9}, 0, 0, notice)
	}
	var bad []string
	served := 0
	server.ServeUDP(53, func(n *Network, from wire.Endpoint, req []byte) []byte {
		served++
		notify(n)
		if want := payload("udpq", index(req)); !bytes.Equal(req, want) {
			bad = append(bad, fmt.Sprintf("udp service saw %q, want %q", req, want))
		}
		return reply(req)
	})
	server.ServeTCP(80, func(n *Network, from wire.Endpoint, req []byte) []byte {
		served++
		notify(n)
		if want := payload("tcpq", index(req)); !bytes.Equal(req, want) {
			bad = append(bad, fmt.Sprintf("tcp app saw %q, want %q", req, want))
		}
		return reply(req)
	})

	// TTL-limited probes: probe i expires at router i%3+1 and carries IP ID
	// i+1, so its quote names both the probe and the hop that dropped it.
	probes := make(map[uint16][]byte)
	quotes := 0
	client.OnICMP(func(n *Network, pkt *wire.Packet) {
		quotes++
		q, err := pkt.ICMP.QuotedIPv4()
		if err != nil {
			bad = append(bad, fmt.Sprintf("bad quote: %v", err))
			return
		}
		sent, ok := probes[q.ID]
		if !ok {
			bad = append(bad, fmt.Sprintf("quote of unknown probe id %d", q.ID))
			return
		}
		if want := routers[int(q.ID-1)%3].Addr; pkt.IP.Src != want {
			bad = append(bad, fmt.Sprintf("probe %d expired at %v, want %v", q.ID, pkt.IP.Src, want))
		}
		// Past the IP header (its TTL and checksum changed en route) the
		// quote is the probe's own UDP header, checksum included.
		quote := pkt.ICMP.Payload()
		if got, want := quote[wire.IPv4HeaderLen:], sent[wire.IPv4HeaderLen:wire.TimeExceededQuoteLen]; !bytes.Equal(got, want) {
			bad = append(bad, fmt.Sprintf("probe %d quote %x, want %x", q.ID, got, want))
		}
	})

	replies := 0
	dst := func(port uint16) wire.Endpoint { return wire.Endpoint{Addr: server.Addr, Port: port} }
	for i := 0; i < requests; i++ {
		n.Schedule(time.Duration(i)*DefaultHopLatency/3, func() {
			udpq, tcpq := payload("udpq", i), payload("tcpq", i)
			client.SendUDPRequest(n, dst(53), udpq, UDPRequestOpts{
				OnReply: func(n *Network, got []byte) {
					replies++
					if want := reply(udpq); !bytes.Equal(got, want) {
						bad = append(bad, fmt.Sprintf("udp reply %q, want %q", got, want))
					}
				},
			})
			client.SendTCPRequest(n, dst(80), tcpq, TCPRequestOpts{
				OnResponse: func(n *Network, got []byte) {
					replies++
					if want := reply(tcpq); !bytes.Equal(got, want) {
						bad = append(bad, fmt.Sprintf("tcp response %q, want %q", got, want))
					}
				},
			})
			id, ttl := uint16(i+1), uint8(i%3+1)
			probe := payload("prbq", i)
			raw, err := wire.BuildUDP(wire.Endpoint{Addr: client.Addr, Port: 33434}, dst(53), ttl, id, probe)
			if err != nil {
				t.Fatal(err)
			}
			probes[id] = raw
			client.sendUDPFrom(n, wire.Endpoint{Addr: client.Addr, Port: 33434}, dst(53), ttl, id, probe)
		})
	}
	n.RunUntilIdle()

	for _, b := range bad[:min(len(bad), 10)] {
		t.Error(b)
	}
	if served != 2*requests || replies != 2*requests || quotes != requests {
		t.Errorf("served %d, replies %d, quotes %d; want %d, %d, %d",
			served, replies, quotes, 2*requests, 2*requests, requests)
	}
	st := n.Stats()
	built := st.PacketsSent + st.ICMPSent
	if pooled := int64(len(n.freeBufs)); pooled == 0 || 4*pooled > built {
		t.Errorf("free list holds %d buffers after %d packets; want reuse (at most a quarter)", pooled, built)
	}
	for _, b := range n.freeBufs {
		if len(b) != 0 || cap(b) != packetBufCap {
			t.Fatalf("free list holds a buffer of len %d cap %d", len(b), cap(b))
		}
	}
}

// TestOversizedPacketNotPooled: a packet too large for a pooled buffer is
// built into one of its own, delivered intact, and never joins the list.
func TestOversizedPacketNotPooled(t *testing.T) {
	n, _ := twoRouterNet()
	client := NewHost(n, wire.AddrFrom(100, 0, 0, 1))
	server := NewHost(n, wire.AddrFrom(192, 0, 2, 53))
	big := bytes.Repeat([]byte("x"), 2*packetBufCap)
	var got []byte
	server.ServeUDP(53, func(n *Network, from wire.Endpoint, req []byte) []byte {
		got = append([]byte(nil), req...)
		return nil
	})
	client.SendUDPOneShot(n, wire.Endpoint{Addr: server.Addr, Port: 53}, 0, 0, big)
	n.RunUntilIdle()
	if !bytes.Equal(got, big) {
		t.Fatalf("service got %d bytes, want %d", len(got), len(big))
	}
	if len(n.freeBufs) != 0 {
		t.Errorf("free list holds %d buffers after an oversized send, want 0", len(n.freeBufs))
	}
}
