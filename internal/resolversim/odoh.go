package resolversim

import (
	"sync"

	"shadowmeter/internal/httpwire"
	"shadowmeter/internal/netsim"
	"shadowmeter/internal/wire"
)

// ObliviousProxy is an Oblivious DoH relay (RFC 9230 shape): clients POST
// their (conceptually encrypted) DNS queries to the proxy, which forwards
// them to the target resolver's DoH endpoint from its own address and
// relays the answer back.
//
// The privacy split the paper's Discussion recommends falls out of the
// architecture: the proxy sees the client's address but not the query
// content (here: it never parses the body), while the resolver decodes the
// query but only ever sees the proxy's address — so a shadowing resolver
// can retain names yet cannot attribute them to clients.
type ObliviousProxy struct {
	Addr wire.Addr

	host *netsim.Host

	mu       sync.Mutex
	relayed  int64
	upstream map[wire.Addr]bool // targets contacted
}

// NewObliviousProxy deploys a relay on addr. Clients POST to
// /odoh?target=<resolver-ip> with an application/oblivious-dns-message
// body.
func NewObliviousProxy(n *netsim.Network, addr wire.Addr) *ObliviousProxy {
	p := &ObliviousProxy{Addr: addr, upstream: make(map[wire.Addr]bool)}
	p.host = netsim.NewHost(n, addr)
	p.host.ServeTCP(443, p.handle)
	return p
}

// Relayed reports how many queries the proxy forwarded.
func (p *ObliviousProxy) Relayed() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.relayed
}

// handle accepts a client's oblivious query and forwards it. Because the
// simulated TCP exchange is one round trip, the proxy answers the client
// once the target responds.
func (p *ObliviousProxy) handle(n *netsim.Network, from wire.Endpoint, payload []byte) []byte {
	req, err := httpwire.ParseRequest(payload)
	if err != nil || req.Method != "POST" {
		return httpwire.NewResponse(400, "bad oblivious request").Encode()
	}
	target, err := wire.ParseAddr(req.Header("odoh-target"))
	if err != nil {
		return httpwire.NewResponse(400, "missing odoh-target").Encode()
	}
	p.mu.Lock()
	p.relayed++
	p.upstream[target] = true
	p.mu.Unlock()

	// Forward to the target's DoH endpoint from the proxy's own address —
	// the body is opaque to us by design.
	fwd := &httpwire.Request{
		Method: "POST", Path: "/dns-query",
		Headers: map[string]string{
			"host":         "odoh-target.invalid",
			"content-type": "application/dns-message",
		},
		Body: req.Body,
	}
	client := from
	p.host.SendTCPRequest(n, wire.Endpoint{Addr: target, Port: 443}, fwd.Encode(), netsim.TCPRequestOpts{
		OnResponse: func(n *netsim.Network, resp []byte) {
			// Relay the target's answer back to the waiting client as a
			// late data segment on the original flow.
			p.pushToClient(n, client, resp)
		},
		OnFail: func(n *netsim.Network) {
			p.pushToClient(n, client, httpwire.NewResponse(502, "target unreachable").Encode())
		},
	})
	return nil // answered asynchronously
}

// pushToClient sends the relayed response on the client's original flow.
func (p *ObliviousProxy) pushToClient(n *netsim.Network, client wire.Endpoint, body []byte) {
	n.SendTCP(wire.Endpoint{Addr: p.Addr, Port: 443}, client, 64, 0,
		wire.TCPPsh|wire.TCPAck|wire.TCPFin, 1, 1, body)
}
