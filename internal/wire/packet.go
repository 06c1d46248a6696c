package wire

import "fmt"

// Packet is a fully decoded packet as seen by simulator devices: the IPv4
// header plus exactly one transport layer. Decoded transport payloads alias
// the raw buffer.
type Packet struct {
	IP   IPv4
	UDP  *UDP
	TCP  *TCP
	ICMP *ICMP

	raw []byte
}

// Parser decodes packets into reusable layer storage, in the style of
// gopacket's DecodingLayerParser: one Parser per goroutine, zero
// allocations per packet on the happy path.
type Parser struct {
	udp  UDP
	tcp  TCP
	icmp ICMP
}

// Decode parses data into pkt. pkt retains references into data; the caller
// must not reuse data while pkt is live. The transport pointer fields are
// owned by the Parser and overwritten by the next Decode call.
func (p *Parser) Decode(data []byte, pkt *Packet) error {
	pkt.UDP, pkt.TCP, pkt.ICMP = nil, nil, nil
	pkt.raw = data //shadowlint:ignore sliceretain documented zero-copy parser: pkt aliases data until the next Decode
	if err := pkt.IP.DecodeFromBytes(data); err != nil {
		return err
	}
	payload := pkt.IP.Payload()
	switch pkt.IP.Protocol {
	case ProtoUDP:
		if err := p.udp.DecodeFromBytes(payload, pkt.IP.Src, pkt.IP.Dst); err != nil {
			return fmt.Errorf("udp: %w", err)
		}
		pkt.UDP = &p.udp
	case ProtoTCP:
		if err := p.tcp.DecodeFromBytes(payload, pkt.IP.Src, pkt.IP.Dst); err != nil {
			return fmt.Errorf("tcp: %w", err)
		}
		pkt.TCP = &p.tcp
	case ProtoICMP:
		if err := p.icmp.DecodeFromBytes(payload); err != nil {
			return fmt.Errorf("icmp: %w", err)
		}
		pkt.ICMP = &p.icmp
	default:
		return fmt.Errorf("wire: unsupported protocol %d", pkt.IP.Protocol)
	}
	return nil
}

// Decode is a convenience one-shot parse that allocates its own layers.
func Decode(data []byte) (*Packet, error) {
	var p Parser
	var pkt Packet
	if err := p.Decode(data, &pkt); err != nil {
		return nil, err
	}
	// Detach the layer storage from the throwaway parser.
	out := &Packet{IP: pkt.IP, raw: data} //shadowlint:ignore sliceretain documented one-shot decode: Packet aliases data by contract
	switch {
	case pkt.UDP != nil:
		u := *pkt.UDP
		out.UDP = &u
	case pkt.TCP != nil:
		t := *pkt.TCP
		out.TCP = &t
	case pkt.ICMP != nil:
		m := *pkt.ICMP
		out.ICMP = &m
	}
	return out, nil
}

// Raw returns the serialized bytes the packet was decoded from.
func (pkt *Packet) Raw() []byte { return pkt.raw }

// Flow returns the transport flow of the packet. ICMP packets report port 0
// on both sides.
func (pkt *Packet) Flow() Flow {
	f := Flow{Proto: pkt.IP.Protocol}
	f.Src.Addr, f.Dst.Addr = pkt.IP.Src, pkt.IP.Dst
	switch {
	case pkt.UDP != nil:
		f.Src.Port, f.Dst.Port = pkt.UDP.SrcPort, pkt.UDP.DstPort
	case pkt.TCP != nil:
		f.Src.Port, f.Dst.Port = pkt.TCP.SrcPort, pkt.TCP.DstPort
	}
	return f
}

// TransportPayload returns the application payload, regardless of transport.
func (pkt *Packet) TransportPayload() []byte {
	switch {
	case pkt.UDP != nil:
		return pkt.UDP.Payload()
	case pkt.TCP != nil:
		return pkt.TCP.Payload()
	case pkt.ICMP != nil:
		return pkt.ICMP.Payload()
	}
	return nil
}

// BuildUDP serializes a complete IPv4/UDP packet into a fresh buffer: it
// is AppendUDP(nil, ...).
func BuildUDP(src, dst Endpoint, ttl uint8, id uint16, payload []byte) ([]byte, error) {
	return AppendUDP(nil, src, dst, ttl, id, payload)
}

// BuildTCP serializes a complete IPv4/TCP packet into a fresh buffer: it
// is AppendTCP(nil, ...).
func BuildTCP(src, dst Endpoint, ttl uint8, id uint16, flags uint8, seq, ack uint32, payload []byte) ([]byte, error) {
	return AppendTCP(nil, src, dst, ttl, id, flags, seq, ack, payload)
}

// BuildICMP serializes a complete IPv4/ICMP packet into a fresh buffer: it
// is AppendICMP(nil, ...).
func BuildICMP(src, dst Addr, ttl uint8, id uint16, msg *ICMP, msgPayload []byte) ([]byte, error) {
	return AppendICMP(nil, src, dst, ttl, id, msg, msgPayload)
}

// AppendUDP serializes a complete IPv4/UDP packet onto dst and returns the
// extended slice. The transport layer serializes in place behind the
// header slot, so the payload is copied exactly once, and a dst with
// enough spare capacity (a recycled packet buffer) makes the build
// allocation-free. payload must not overlap dst's spare capacity.
func AppendUDP(dst []byte, src, to Endpoint, ttl uint8, id uint16, payload []byte) ([]byte, error) {
	udp := UDP{SrcPort: src.Port, DstPort: to.Port}
	buf, pkt := grow(dst, IPv4HeaderLen+UDPHeaderLen+len(payload))
	if _, err := udp.SerializeTo(pkt[IPv4HeaderLen:], src.Addr, to.Addr, payload); err != nil {
		return dst, err
	}
	ip := IPv4{TTL: ttl, Protocol: ProtoUDP, ID: id, Src: src.Addr, Dst: to.Addr, Flags: FlagDF}
	if err := ip.SerializeHeader(pkt, len(pkt)-IPv4HeaderLen); err != nil {
		return dst, err
	}
	return buf, nil
}

// AppendTCP is AppendUDP for an IPv4/TCP segment.
func AppendTCP(dst []byte, src, to Endpoint, ttl uint8, id uint16, flags uint8, seq, ack uint32, payload []byte) ([]byte, error) {
	tcp := TCP{SrcPort: src.Port, DstPort: to.Port, Seq: seq, Ack: ack, Flags: flags, Window: 65535}
	buf, pkt := grow(dst, IPv4HeaderLen+TCPHeaderLen+len(payload))
	if _, err := tcp.SerializeTo(pkt[IPv4HeaderLen:], src.Addr, to.Addr, payload); err != nil {
		return dst, err
	}
	ip := IPv4{TTL: ttl, Protocol: ProtoTCP, ID: id, Src: src.Addr, Dst: to.Addr, Flags: FlagDF}
	if err := ip.SerializeHeader(pkt, len(pkt)-IPv4HeaderLen); err != nil {
		return dst, err
	}
	return buf, nil
}

// AppendICMP is AppendUDP for an IPv4/ICMP message.
func AppendICMP(dst []byte, src, to Addr, ttl uint8, id uint16, msg *ICMP, msgPayload []byte) ([]byte, error) {
	buf, pkt := grow(dst, IPv4HeaderLen+ICMPHeaderLen+len(msgPayload))
	if _, err := msg.SerializeTo(pkt[IPv4HeaderLen:], msgPayload); err != nil {
		return dst, err
	}
	ip := IPv4{TTL: ttl, Protocol: ProtoICMP, ID: id, Src: src, Dst: to}
	if err := ip.SerializeHeader(pkt, len(pkt)-IPv4HeaderLen); err != nil {
		return dst, err
	}
	return buf, nil
}

// grow extends dst by n bytes, reallocating only when its spare capacity
// is short, and returns the extended slice plus its new n-byte tail.
func grow(dst []byte, n int) (buf, tail []byte) {
	k := len(dst)
	if cap(dst)-k < n {
		buf = make([]byte, k+n)
		copy(buf, dst)
	} else {
		buf = dst[:k+n]
	}
	return buf, buf[k:]
}
