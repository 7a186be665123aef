package tcp

import (
	"fmt"
	"sync"

	"xkernel/internal/event"
	"xkernel/internal/msg"
	"xkernel/internal/pmap"
	"xkernel/internal/trace"
	"xkernel/internal/xk"
)

// connState is the TCP connection state.
type connState int

const (
	stateListen connState = iota
	stateSynSent
	stateSynRcvd
	stateEstablished
	stateFinWait1
	stateFinWait2
	stateCloseWait
	stateLastAck
	stateClosed
)

func (s connState) String() string {
	return [...]string{"LISTEN", "SYN_SENT", "SYN_RCVD", "ESTABLISHED",
		"FIN_WAIT_1", "FIN_WAIT_2", "CLOSE_WAIT", "LAST_ACK", "CLOSED"}[s]
}

// seg is one unacknowledged transmission.
type seg struct {
	seq      uint32
	data     []byte
	syn, fin bool
	retries  int
}

func (g *seg) seqLen() uint32 {
	n := uint32(len(g.data))
	if g.syn {
		n++
	}
	if g.fin {
		n++
	}
	return n
}

// Conn is a TCP connection: an xk.Session whose Push writes to the byte
// stream and whose upward demux delivers in-order stream chunks.
type Conn struct {
	xk.BaseSession
	p            *Protocol
	lport, rport Port
	rhost        xk.IPAddr

	mu       sync.Mutex
	state    connState
	iss      uint32
	sndUna   uint32
	sndNxt   uint32
	rcvNxt   uint32
	peerWin  int
	sendQ    []byte
	finQd    bool
	finSent  bool
	inflight []*seg
	ooo      map[uint32][]byte
	rto      *event.Event
	backoff  int

	established chan struct{}
	connectErr  error
	estOnce     sync.Once
}

func newConn(p *Protocol, hlp xk.Protocol, lport, rport Port, rhost xk.IPAddr, lls xk.Session, active bool) *Conn {
	c := &Conn{
		p:           p,
		lport:       lport,
		rport:       rport,
		rhost:       rhost,
		peerWin:     p.cfg.Window,
		ooo:         make(map[uint32][]byte),
		established: make(chan struct{}),
	}
	c.InitSession(p, hlp, lls)
	if active {
		c.state = stateSynSent
	} else {
		c.state = stateListen
	}
	return c
}

// State reports the connection state (for tests and diagnostics).
func (c *Conn) State() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state.String()
}

// Remote reports the peer.
func (c *Conn) Remote() (xk.IPAddr, Port) { return c.rhost, c.rport }

// connect runs the active side of the handshake and blocks for it.
func (c *Conn) connect() error {
	c.mu.Lock()
	c.iss = c.p.iss()
	c.sndUna = c.iss
	c.sndNxt = c.iss + 1
	g := &seg{seq: c.iss, syn: true}
	c.inflight = append(c.inflight, g)
	c.armRTOLocked()
	out := c.frame(g, false)
	c.mu.Unlock()

	if err := c.push(out); err != nil {
		return err
	}
	timeout := make(chan struct{})
	ev := c.p.cfg.Clock.Schedule(c.p.cfg.ConnectTimeout, func() { close(timeout) })
	select {
	case <-c.established:
		ev.Cancel()
		c.mu.Lock()
		err := c.connectErr
		c.mu.Unlock()
		return err
	case <-timeout:
		c.teardown(fmt.Errorf("%s: connect %s:%d: %w", c.p.Name(), c.rhost, c.rport, xk.ErrTimeout))
		return fmt.Errorf("%s: connect %s:%d: %w", c.p.Name(), c.rhost, c.rport, xk.ErrTimeout)
	}
}

// frame builds the wire message for a segment. Caller holds c.mu.
func (c *Conn) frame(g *seg, ackValid bool) *msg.Msg {
	h := header{
		src:    c.lport,
		dst:    c.rport,
		seq:    g.seq,
		window: uint16(c.p.cfg.Window),
	}
	if g.syn {
		h.flags |= flagSYN
	}
	if g.fin {
		h.flags |= flagFIN
	}
	if ackValid {
		h.flags |= flagACK
		h.ack = c.rcvNxt
	}
	return buildSegment(h, g.data)
}

// push transmits one framed segment (never under c.mu: the synchronous
// simulator may deliver the peer's response re-entrantly).
func (c *Conn) push(m *msg.Msg) error {
	c.p.count(func(s *Stats) { s.SegmentsSent++ })
	return c.Down(0).Push(m)
}

// sendAckNow emits a pure acknowledgement. Caller must NOT hold c.mu.
func (c *Conn) sendAckNow() error {
	c.mu.Lock()
	h := header{
		src: c.lport, dst: c.rport,
		seq: c.sndNxt, ack: c.rcvNxt,
		flags:  flagACK,
		window: uint16(c.p.cfg.Window),
	}
	c.mu.Unlock()
	return c.push(buildSegment(h, nil))
}

// Push appends the message bytes to the outgoing stream.
func (c *Conn) Push(m *msg.Msg) error {
	c.mu.Lock()
	if c.state != stateEstablished && c.state != stateCloseWait {
		st := c.state
		c.mu.Unlock()
		return fmt.Errorf("%s: push in %s: %w", c.p.Name(), st, xk.ErrClosed)
	}
	if c.finQd {
		c.mu.Unlock()
		return fmt.Errorf("%s: push after close: %w", c.p.Name(), xk.ErrClosed)
	}
	//xk:allow hotpathalloc — the stream send queue must own its bytes for retransmission; growth is amortized
	c.sendQ = append(c.sendQ, m.Bytes()...)
	outs := c.buildSendableLocked()
	c.mu.Unlock()
	return c.pushAll(outs)
}

func (c *Conn) pushAll(outs []*msg.Msg) error {
	for _, o := range outs {
		if err := c.push(o); err != nil {
			return err
		}
	}
	return nil
}

// inflightBytesLocked sums unacknowledged payload.
func (c *Conn) inflightBytesLocked() int {
	n := 0
	for _, g := range c.inflight {
		n += len(g.data)
	}
	return n
}

// buildSendableLocked segments as much queued data as the windows allow
// (and the FIN once the queue drains), returning framed messages to
// push after the lock is released.
func (c *Conn) buildSendableLocked() []*msg.Msg {
	var outs []*msg.Msg
	limit := c.peerWin
	if c.p.cfg.Window < limit {
		limit = c.p.cfg.Window
	}
	for len(c.sendQ) > 0 && c.inflightBytesLocked() < limit {
		n := c.p.cfg.MSS
		if n > len(c.sendQ) {
			n = len(c.sendQ)
		}
		if room := limit - c.inflightBytesLocked(); n > room {
			n = room
		}
		if n <= 0 {
			break
		}
		data := append([]byte(nil), c.sendQ[:n]...)
		c.sendQ = c.sendQ[n:]
		g := &seg{seq: c.sndNxt, data: data}
		c.sndNxt += uint32(n)
		c.inflight = append(c.inflight, g)
		outs = append(outs, c.frame(g, true))
	}
	if c.finQd && !c.finSent && len(c.sendQ) == 0 {
		g := &seg{seq: c.sndNxt, fin: true}
		c.sndNxt++
		c.finSent = true
		c.inflight = append(c.inflight, g)
		outs = append(outs, c.frame(g, true))
	}
	if len(c.inflight) > 0 {
		c.armRTOLocked()
	}
	if got := int64(c.inflightBytesLocked()); got > 0 {
		c.p.count(func(s *Stats) {
			if got > s.MaxInflight {
				s.MaxInflight = got
			}
		})
	}
	return outs
}

// armRTOLocked starts the retransmission timer if not running.
func (c *Conn) armRTOLocked() {
	if c.rto != nil {
		return
	}
	d := c.p.cfg.RTO << uint(c.backoff)
	c.rto = c.p.cfg.Clock.Schedule(d, c.rtoFire)
}

// rtoFire retransmits the oldest unacknowledged segment.
func (c *Conn) rtoFire() {
	c.mu.Lock()
	c.rto = nil
	if len(c.inflight) == 0 || c.state == stateClosed {
		c.mu.Unlock()
		return
	}
	g := c.inflight[0]
	g.retries++
	if g.retries > c.p.cfg.MaxRetries {
		c.mu.Unlock()
		c.teardown(fmt.Errorf("%s: %s:%d unresponsive: %w", c.p.Name(), c.rhost, c.rport, xk.ErrTimeout))
		return
	}
	if c.backoff < 6 {
		c.backoff++
	}
	c.armRTOLocked()
	out := c.frame(g, c.state != stateSynSent)
	c.mu.Unlock()

	c.p.count(func(s *Stats) { s.Retransmits++ })
	trace.Printf(trace.Events, c.p.Name(), "retransmit seq=%d (%d retries)", g.seq, g.retries)
	if err := c.push(out); err != nil {
		trace.Printf(trace.Events, c.p.Name(), "retransmit failed: %v", err)
	}
}

// segment processes one received segment. It is the only entry point
// from demux.
func (c *Conn) segment(h header, payload []byte) error {
	c.mu.Lock()
	if c.state == stateClosed {
		c.mu.Unlock()
		return nil
	}
	if h.flags&flagRST != 0 {
		c.mu.Unlock()
		c.teardown(fmt.Errorf("%s: connection reset by %s:%d", c.p.Name(), c.rhost, c.rport))
		return nil
	}
	c.peerWin = int(h.window)

	// Handshake states first.
	switch c.state {
	case stateListen:
		if h.flags&flagSYN == 0 {
			c.mu.Unlock()
			return fmt.Errorf("%s: non-SYN in LISTEN: %w", c.p.Name(), xk.ErrBadHeader)
		}
		c.rcvNxt = h.seq + 1
		c.iss = c.p.iss()
		c.sndUna = c.iss
		c.sndNxt = c.iss + 1
		g := &seg{seq: c.iss, syn: true}
		c.inflight = append(c.inflight, g)
		c.state = stateSynRcvd
		c.armRTOLocked()
		out := c.frame(g, true)
		c.mu.Unlock()
		return c.push(out)

	case stateSynSent:
		if h.flags&(flagSYN|flagACK) != flagSYN|flagACK || h.ack != c.iss+1 {
			c.mu.Unlock()
			return fmt.Errorf("%s: bad handshake reply: %w", c.p.Name(), xk.ErrBadHeader)
		}
		c.rcvNxt = h.seq + 1
		c.acceptAckLocked(h.ack)
		c.state = stateEstablished
		c.mu.Unlock()
		if err := c.sendAckNow(); err != nil {
			return err
		}
		c.estOnce.Do(func() { close(c.established) })
		return nil
	}

	// Acknowledgement processing for every synchronized state.
	var becameEstablished bool
	if h.flags&flagACK != 0 {
		c.acceptAckLocked(h.ack)
		if c.state == stateSynRcvd && c.sndUna == c.iss+1 {
			c.state = stateEstablished
			becameEstablished = true
		}
		if c.state == stateFinWait1 && c.finSent && c.sndUna == c.sndNxt {
			c.state = stateFinWait2
		}
		if c.state == stateLastAck && c.sndUna == c.sndNxt {
			c.closeLocked()
			c.mu.Unlock()
			return nil
		}
	}

	// In-order data assembly.
	var deliver [][]byte
	ackNeeded := false
	if len(payload) > 0 {
		switch {
		case h.seq == c.rcvNxt:
			c.rcvNxt += uint32(len(payload))
			deliver = append(deliver, payload)
			for {
				next, ok := c.ooo[c.rcvNxt]
				if !ok {
					break
				}
				delete(c.ooo, c.rcvNxt)
				c.rcvNxt += uint32(len(next))
				deliver = append(deliver, next)
			}
			ackNeeded = true
		case h.seq > c.rcvNxt:
			if _, dup := c.ooo[h.seq]; !dup && len(c.ooo) < 64 {
				c.ooo[h.seq] = append([]byte(nil), payload...)
				c.p.count(func(s *Stats) { s.OutOfOrderQueued++ })
			}
			ackNeeded = true // duplicate ack asks for the gap
			c.p.count(func(s *Stats) { s.DupAcksSent++ })
		default: // retransmission of delivered data
			ackNeeded = true
			c.p.count(func(s *Stats) { s.DupAcksSent++ })
		}
	}

	// FIN processing: it occupies the sequence position after the
	// payload.
	finSeq := h.seq + uint32(len(payload))
	if h.flags&flagFIN != 0 && finSeq == c.rcvNxt {
		c.rcvNxt++
		ackNeeded = true
		switch c.state {
		case stateEstablished, stateSynRcvd:
			c.state = stateCloseWait
		case stateFinWait1:
			// Their FIN with our FIN unacked: stay conservative,
			// wait for our ack in FIN_WAIT1 handling above.
			c.state = stateFinWait2
		case stateFinWait2:
			c.closeLocked()
		}
	}
	c.mu.Unlock()

	if becameEstablished {
		up := c.Up()
		if up != nil {
			pps := xk.NewParticipants(
				xk.NewParticipant(c.lport),
				xk.NewParticipant(c.rhost, c.rport),
			)
			if err := up.OpenDone(c.p, c, pps); err != nil {
				return err
			}
		}
		c.estOnce.Do(func() { close(c.established) })
	}

	up := c.Up()
	for _, chunk := range deliver {
		if up == nil {
			break
		}
		if err := up.Demux(c, msg.New(append([]byte(nil), chunk...))); err != nil {
			return err
		}
	}
	// The ack goes out even when this segment closed the connection:
	// the peer's FIN in LAST_ACK is waiting for it (the abbreviated
	// TIME_WAIT).
	if ackNeeded {
		if err := c.sendAckNow(); err != nil {
			return err
		}
	}
	// An advancing ack may have opened the send window.
	c.mu.Lock()
	outs := c.buildSendableLocked()
	c.mu.Unlock()
	return c.pushAll(outs)
}

// acceptAckLocked advances the send machinery. Caller holds c.mu.
func (c *Conn) acceptAckLocked(ack uint32) {
	if ack <= c.sndUna || ack > c.sndNxt {
		return
	}
	c.sndUna = ack
	keep := c.inflight[:0]
	for _, g := range c.inflight {
		if g.seq+g.seqLen() > ack {
			keep = append(keep, g)
		}
	}
	c.inflight = keep
	c.backoff = 0
	if c.rto != nil {
		c.rto.Cancel()
		c.rto = nil
	}
	if len(c.inflight) > 0 {
		c.armRTOLocked()
	}
}

// Close initiates an orderly shutdown: queued data flushes first, then
// the FIN goes out.
func (c *Conn) Close() error {
	c.mu.Lock()
	switch c.state {
	case stateClosed:
		c.mu.Unlock()
		return nil
	case stateEstablished, stateSynRcvd:
		c.state = stateFinWait1
	case stateCloseWait:
		c.state = stateLastAck
	default:
		c.mu.Unlock()
		return nil
	}
	c.finQd = true
	outs := c.buildSendableLocked()
	c.mu.Unlock()
	return c.pushAll(outs)
}

// PeerClosed reports whether the remote side has sent its FIN.
func (c *Conn) PeerClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state == stateCloseWait || c.state == stateLastAck || c.state == stateClosed
}

// closeLocked finishes the connection. Caller holds c.mu.
func (c *Conn) closeLocked() {
	c.state = stateClosed
	if c.rto != nil {
		c.rto.Cancel()
		c.rto = nil
	}
	var kb pmap.Key
	c.p.active.Release(key(&kb, c.lport, c.rport, c.rhost), c)
	trace.Printf(trace.Events, c.p.Name(), "closed %d <-> %s:%d", c.lport, c.rhost, c.rport)
}

// teardown aborts the connection.
func (c *Conn) teardown(err error) {
	c.mu.Lock()
	if c.state == stateClosed {
		c.mu.Unlock()
		return
	}
	c.connectErr = err
	c.closeLocked()
	c.mu.Unlock()
	c.estOnce.Do(func() { close(c.established) })
	trace.Printf(trace.Events, c.p.Name(), "aborted: %v", err)
}

// Pop is unused: the protocol's demux feeds segment directly.
func (c *Conn) Pop(lls xk.Session, m *msg.Msg) error {
	return fmt.Errorf("%s: pop: %w", c.p.Name(), xk.ErrOpNotSupported)
}

// Control reports connection parameters.
func (c *Conn) Control(op xk.ControlOp, arg any) (any, error) {
	switch op {
	case xk.CtlGetPeerHost:
		return c.rhost, nil
	case xk.CtlGetMyProto:
		return uint32(c.lport), nil
	case xk.CtlGetPeerProto:
		return uint32(c.rport), nil
	case xk.CtlGetMTU:
		return c.p.cfg.Window, nil
	case xk.CtlGetOptPacket:
		return c.p.cfg.MSS, nil
	default:
		return c.BaseSession.Control(op, arg)
	}
}
