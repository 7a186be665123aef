// Package icmp implements a minimal Internet Control Message Protocol:
// echo request/reply (ping). It rounds out the conventional Arpanet suite
// the x-kernel hosts alongside the experimental RPC stacks and gives the
// examples a liveness probe.
package icmp

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"xkernel/internal/event"
	"xkernel/internal/msg"
	"xkernel/internal/proto/ip"
	"xkernel/internal/trace"
	"xkernel/internal/xk"
)

// HeaderLen is the ICMP header size: type(1) code(1) cksum(2) id(2) seq(2).
const HeaderLen = 8

const (
	typeEchoReply   uint8 = 0
	typeEchoRequest uint8 = 8
)

// Protocol is the ICMP protocol object. It is its own top-level client:
// Ping drives it directly rather than through a session open.
type Protocol struct {
	xk.BaseProtocol
	llp   xk.Protocol
	clock event.Clock

	mu      sync.Mutex
	nextID  uint16
	waiting map[uint32]chan int // id<<16|seq → payload length
}

// New creates ICMP above llp (IP) and registers for protocol number 1.
func New(name string, llp xk.Protocol, clock event.Clock) (*Protocol, error) {
	if clock == nil {
		clock = event.Real()
	}
	p := &Protocol{
		BaseProtocol: xk.BaseProtocol{ProtoName: name},
		llp:          llp,
		clock:        clock,
		waiting:      make(map[uint32]chan int),
	}
	if err := llp.OpenEnable(p, xk.LocalOnly(xk.NewParticipant(ip.ProtoICMP))); err != nil {
		return nil, fmt.Errorf("%s: enable: %w", name, err)
	}
	return p, nil
}

// OpenDone accepts passively created IP sessions.
func (p *Protocol) OpenDone(llp xk.Protocol, lls xk.Session, ps *xk.Participants) error {
	return nil
}

// Ping sends an echo request with payload bytes of data to dst and waits
// up to timeout for the matching reply, returning the echoed payload
// size.
func (p *Protocol) Ping(dst xk.IPAddr, payload int, timeout time.Duration) (int, error) {
	lls, err := p.llp.Open(p, xk.NewParticipants(
		xk.NewParticipant(ip.ProtoICMP),
		xk.NewParticipant(dst),
	))
	if err != nil {
		return 0, err
	}

	p.mu.Lock()
	p.nextID++
	id := p.nextID
	seq := uint16(1)
	ch := make(chan int, 1)
	p.waiting[uint32(id)<<16|uint32(seq)] = ch
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		delete(p.waiting, uint32(id)<<16|uint32(seq))
		p.mu.Unlock()
	}()

	m := msg.New(msg.MakeData(payload))
	m.MustPush(header(typeEchoRequest, id, seq))
	if err := lls.Push(m); err != nil {
		return 0, err
	}

	done := make(chan struct{})
	ev := p.clock.Schedule(timeout, func() { close(done) })
	defer ev.Cancel()
	select {
	case n := <-ch:
		return n, nil
	case <-done:
		return 0, fmt.Errorf("%s: ping %s: %w", p.Name(), dst, xk.ErrTimeout)
	}
}

func header(t uint8, id, seq uint16) []byte {
	h := make([]byte, HeaderLen)
	h[0] = t
	binary.BigEndian.PutUint16(h[4:6], id)
	binary.BigEndian.PutUint16(h[6:8], seq)
	binary.BigEndian.PutUint16(h[2:4], ip.Checksum(h))
	return h
}

// Demux answers echo requests and completes waiting pings.
func (p *Protocol) Demux(lls xk.Session, m *msg.Msg) error {
	h, err := m.Pop(HeaderLen)
	if err != nil {
		return fmt.Errorf("%s: %w", p.Name(), xk.ErrBadHeader)
	}
	t := h[0]
	id := binary.BigEndian.Uint16(h[4:6])
	seq := binary.BigEndian.Uint16(h[6:8])
	switch t {
	case typeEchoRequest:
		if trace.Enabled(trace.Packets) {
			trace.Printf(trace.Packets, p.Name(), "echo request id=%d seq=%d len=%d", id, seq, m.Len())
		}
		m.MustPush(header(typeEchoReply, id, seq))
		return lls.Push(m)
	case typeEchoReply:
		p.mu.Lock()
		ch, ok := p.waiting[uint32(id)<<16|uint32(seq)]
		p.mu.Unlock()
		if ok {
			select {
			case ch <- m.Len():
			default:
			}
		}
		return nil
	default:
		return fmt.Errorf("%s: type %d: %w", p.Name(), t, xk.ErrBadHeader)
	}
}
