package decoy

import (
	"strings"
	"testing"
	"time"

	"shadowmeter/internal/dnswire"
	"shadowmeter/internal/httpwire"
	"shadowmeter/internal/tlswire"
	"shadowmeter/internal/wire"
)

var (
	epoch = time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC)
	vp    = wire.MustParseAddr("100.64.1.2")
	dst   = wire.Endpoint{Addr: wire.MustParseAddr("77.88.8.8"), Port: 53}
)

func gen() *Generator { return NewGenerator("experiment.domain", epoch) }

func TestGenerateDNS(t *testing.T) {
	g := gen()
	d, err := g.Generate(DNS, epoch.Add(time.Hour), vp, dst, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(d.Domain, ".www.experiment.domain") {
		t.Errorf("domain = %q", d.Domain)
	}
	msg, err := dnswire.Decode(d.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if msg.QName() != d.Domain {
		t.Errorf("QNAME = %q, want %q", msg.QName(), d.Domain)
	}
	if msg.QType() != dnswire.TypeA || !msg.Header.RD {
		t.Errorf("query shape: %+v", msg.Header)
	}
	// The identifier must round-trip through the codec.
	id, err := g.Codec().Decode(d.Label)
	if err != nil {
		t.Fatal(err)
	}
	if id.VP != vp || id.Dst != dst.Addr || id.TTL != 64 {
		t.Errorf("identifier = %+v", id)
	}
}

func TestGenerateHTTP(t *testing.T) {
	g := gen()
	d, err := g.Generate(HTTP, epoch.Add(time.Minute), vp, wire.Endpoint{Addr: wire.MustParseAddr("203.0.113.1"), Port: 80}, 32)
	if err != nil {
		t.Fatal(err)
	}
	domain, ok := ExtractDomain(HTTP, d.Payload)
	if !ok || domain != d.Domain {
		t.Errorf("extracted %q, want %q", domain, d.Domain)
	}
}

func TestGenerateTLS(t *testing.T) {
	g := gen()
	d, err := g.Generate(TLS, epoch.Add(time.Minute), vp, wire.Endpoint{Addr: wire.MustParseAddr("203.0.113.1"), Port: 443}, 16)
	if err != nil {
		t.Fatal(err)
	}
	domain, ok := ExtractDomain(TLS, d.Payload)
	if !ok || domain != d.Domain {
		t.Errorf("extracted %q, want %q", domain, d.Domain)
	}
}

func TestTLSRandomDeterministic(t *testing.T) {
	g1, g2 := gen(), gen()
	d1, err := g1.Generate(TLS, epoch.Add(time.Minute), vp, dst, 16)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := g2.Generate(TLS, epoch.Add(time.Minute), vp, dst, 16)
	if err != nil {
		t.Fatal(err)
	}
	if string(d1.Payload) != string(d2.Payload) {
		t.Error("same inputs should produce identical TLS decoys")
	}
}

func TestDomainsUnique(t *testing.T) {
	g := gen()
	seen := make(map[string]bool)
	for i := 0; i < 2000; i++ {
		d, err := g.Generate(DNS, epoch.Add(time.Duration(i)*time.Second), vp, dst, 64)
		if err != nil {
			t.Fatal(err)
		}
		if seen[d.Domain] {
			t.Fatalf("duplicate domain at %d: %s", i, d.Domain)
		}
		seen[d.Domain] = true
	}
}

func TestTTLEncodedPerDecoy(t *testing.T) {
	g := gen()
	for ttl := uint8(1); ttl <= 64; ttl += 7 {
		d, err := g.Generate(DNS, epoch.Add(time.Hour), vp, dst, ttl)
		if err != nil {
			t.Fatal(err)
		}
		id, err := g.Codec().Decode(d.Label)
		if err != nil {
			t.Fatal(err)
		}
		if id.TTL != ttl {
			t.Errorf("TTL = %d, want %d", id.TTL, ttl)
		}
	}
}

func TestExtractDomainRejects(t *testing.T) {
	if _, ok := ExtractDomain(DNS, []byte("junk")); ok {
		t.Error("junk DNS accepted")
	}
	if _, ok := ExtractDomain(HTTP, []byte("junk")); ok {
		t.Error("junk HTTP accepted")
	}
	if _, ok := ExtractDomain(TLS, []byte("junk")); ok {
		t.Error("junk TLS accepted")
	}
	// A DNS response (QR=1) is not a decoy-shaped query.
	g := gen()
	d, _ := g.Generate(DNS, epoch, vp, dst, 64)
	msg, _ := dnswire.Decode(d.Payload)
	resp := dnswire.NewResponse(msg, dnswire.RcodeNoError)
	raw, _ := resp.Encode()
	if _, ok := ExtractDomain(DNS, raw); ok {
		t.Error("DNS response should not extract as decoy")
	}
}

func TestSniffDomainPortDispatch(t *testing.T) {
	g := gen()
	dDNS, _ := g.Generate(DNS, epoch, vp, dst, 64)
	dHTTP, _ := g.Generate(HTTP, epoch, vp, dst, 64)
	dTLS, _ := g.Generate(TLS, epoch, vp, dst, 64)

	if dom, proto, ok := SniffDomain(53, dDNS.Payload); !ok || proto != DNS || dom != dDNS.Domain {
		t.Errorf("port 53 sniff: %q %v %v", dom, proto, ok)
	}
	if dom, proto, ok := SniffDomain(80, dHTTP.Payload); !ok || proto != HTTP || dom != dHTTP.Domain {
		t.Errorf("port 80 sniff: %q %v %v", dom, proto, ok)
	}
	if dom, proto, ok := SniffDomain(443, dTLS.Payload); !ok || proto != TLS || dom != dTLS.Domain {
		t.Errorf("port 443 sniff: %q %v %v", dom, proto, ok)
	}
	// Wrong port: no extraction.
	if _, _, ok := SniffDomain(22, dDNS.Payload); ok {
		t.Error("port 22 should not sniff")
	}
	if _, _, ok := SniffDomain(80, dDNS.Payload); ok {
		t.Error("DNS bytes on port 80 should not parse as HTTP")
	}
}

func TestPacerRateLimit(t *testing.T) {
	p := NewPacer(2) // 2/s -> 500ms interval
	target := dst.Addr
	now := epoch
	t1 := p.NextSendTime(now, target)
	t2 := p.NextSendTime(now, target)
	t3 := p.NextSendTime(now, target)
	if !t1.Equal(now) {
		t.Errorf("t1 = %v", t1)
	}
	if d := t2.Sub(t1); d != 500*time.Millisecond {
		t.Errorf("t2-t1 = %v", d)
	}
	if d := t3.Sub(t2); d != 500*time.Millisecond {
		t.Errorf("t3-t2 = %v", d)
	}
	// A different target is not throttled.
	other := wire.MustParseAddr("8.8.8.8")
	if got := p.NextSendTime(now, other); !got.Equal(now) {
		t.Errorf("other target delayed: %v", got)
	}
}

func TestPacerAdvancesWithClock(t *testing.T) {
	p := NewPacer(2)
	target := dst.Addr
	p.NextSendTime(epoch, target)
	// If the clock has moved past the reserved slot, no delay is added.
	later := epoch.Add(10 * time.Second)
	if got := p.NextSendTime(later, target); !got.Equal(later) {
		t.Errorf("got %v, want %v", got, later)
	}
}

func TestProtocolString(t *testing.T) {
	if DNS.String() != "DNS" || HTTP.String() != "HTTP" || TLS.String() != "TLS" {
		t.Error("protocol names")
	}
	if Protocol(9).String() != "Protocol(9)" {
		t.Error("unknown protocol name")
	}
}

func BenchmarkGenerateDNS(b *testing.B) {
	g := gen()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := g.Generate(DNS, epoch.Add(time.Duration(i)), vp, dst, 64); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSniffDomainTLS(b *testing.B) {
	g := gen()
	d, _ := g.Generate(TLS, epoch, vp, dst, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, ok := SniffDomain(443, d.Payload); !ok {
			b.Fatal("sniff failed")
		}
	}
}

func TestGenerateECHHidesDomainFromWire(t *testing.T) {
	g := gen()
	d, err := g.GenerateECH(epoch.Add(time.Hour), vp, wire.Endpoint{Addr: wire.MustParseAddr("203.0.113.1"), Port: 443}, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Encrypted || d.Protocol != TLS {
		t.Errorf("decoy = %+v", d)
	}
	// DPI extraction must fail on the wire bytes.
	if _, _, ok := SniffDomain(443, d.Payload); ok {
		t.Error("ECH decoy leaked a domain to DPI")
	}
	if strings.Contains(string(d.Payload), d.Label) {
		t.Error("identifier label appears in clear text")
	}
}

func TestGenerateDoHHidesQNAMEFromWire(t *testing.T) {
	g := gen()
	d, err := g.GenerateDoH(epoch.Add(time.Hour), vp, wire.Endpoint{Addr: wire.MustParseAddr("77.88.8.8"), Port: 53}, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Encrypted || d.Protocol != DNS || d.Dst.Port != 443 {
		t.Errorf("decoy = %+v", d)
	}
	// Port-443 DPI tries TLS and fails; port-53 DPI never sees it.
	if _, _, ok := SniffDomain(443, d.Payload); ok {
		t.Error("DoH decoy leaked a domain to DPI")
	}
	// The envelope parses as HTTP with the resolver-facing host, not the
	// decoy domain.
	req, err := httpwire.ParseRequest(d.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if req.Method != "POST" || req.Path != "/dns-query" {
		t.Errorf("envelope = %s %s", req.Method, req.Path)
	}
	if strings.Contains(req.Host(), d.Label) {
		t.Error("Host header carries the decoy label")
	}
	// The resolver can recover the inner query.
	msg, err := dnswire.Decode(req.Body)
	if err != nil {
		t.Fatal(err)
	}
	if msg.QName() != d.Domain {
		t.Errorf("inner QNAME = %q, want %q", msg.QName(), d.Domain)
	}
}

// TestSniffHostSNIMatchesStringPath holds the byte-view sniff of HTTP Host
// and TLS SNI to the string path it replaced — HostFromBytes/SNIFromBytes
// then dnswire.Canonical — on ASCII, mixed-case, trailing-dot, non-ASCII
// and over-long names, with and without an interner.
func TestSniffHostSNIMatchesStringPath(t *testing.T) {
	names := []string{
		"", "www.example.com", "WWW.Example.COM", "example.com.", "Example.COM.",
		"example.com..", ".", "a", "xn--bcher-kva.example",
		"Bücher.Example.", "ÄÖÜ.example", "straße.DE.", "\xff\xfe.invalid",
		strings.Repeat("Ab", 126) + ".", strings.Repeat("ab", 127), strings.Repeat("ä", 200),
	}
	var s Sniffer
	for _, name := range names {
		httpReq := []byte("GET / HTTP/1.1\r\nHost: " + name + "\r\nAccept: */*\r\n\r\n")
		hello, err := tlswire.NewClientHello(name, [32]byte{}).Encode()
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			port    uint16
			payload []byte
			ref     func([]byte) (string, bool)
		}{
			{80, httpReq, func(b []byte) (string, bool) {
				h, ok := httpwire.HostFromBytes(b)
				return dnswire.Canonical(h), ok && h != ""
			}},
			{443, hello, func(b []byte) (string, bool) {
				n, err := tlswire.SNIFromBytes(b)
				return dnswire.Canonical(n), err == nil
			}},
		} {
			want, wantOK := tc.ref(tc.payload)
			got, _, ok := SniffDomain(tc.port, tc.payload)
			interned, _, iok := s.SniffDomain(tc.port, tc.payload)
			if ok != wantOK || iok != wantOK || (wantOK && (got != want || interned != want)) {
				t.Errorf("port %d, name %q: sniffed (%q, %v), interned (%q, %v); string path gives (%q, %v)",
					tc.port, name, got, ok, interned, iok, want, wantOK)
			}
		}
	}
}

// TestSniffHostSNIAllocationFree: once a Host or SNI has been interned,
// sniffing it again allocates nothing.
func TestSniffHostSNIAllocationFree(t *testing.T) {
	g := gen()
	dHTTP, _ := g.Generate(HTTP, epoch, vp, dst, 64)
	dTLS, _ := g.Generate(TLS, epoch, vp, dst, 64)
	var s Sniffer
	for _, d := range []*Decoy{dHTTP, dTLS} {
		port := uint16(80)
		if d.Protocol == TLS {
			port = 443
		}
		s.SniffDomain(port, d.Payload)
		if allocs := testing.AllocsPerRun(100, func() { s.SniffDomain(port, d.Payload) }); allocs != 0 {
			t.Errorf("%v: repeat sniff allocated %v times, want 0", d.Protocol, allocs)
		}
	}
}
