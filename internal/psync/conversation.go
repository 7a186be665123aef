package psync

import (
	"encoding/binary"
	"fmt"
	"sync"

	"xkernel/internal/event"
	"xkernel/internal/msg"
	"xkernel/internal/trace"
	"xkernel/internal/xk"
)

// node is one vertex of the context graph.
type node struct {
	id     MsgID
	deps   []MsgID
	isLeaf bool
}

// pendingMsg is a received message waiting for its context.
type pendingMsg struct {
	m       *Message
	missing map[MsgID]bool
}

// chase tracks the retransmission requests for one missing message.
type chase struct {
	retries int
	timer   *event.Event
}

// Conversation is one many-to-many exchange: the local view of the
// context graph, the store of sent and delivered messages, and the
// context-chasing machinery.
type Conversation struct {
	p       *Protocol
	id      uint32
	peers   []xk.IPAddr
	deliver func(Message)

	mu      sync.Mutex
	seq     uint32
	graph   map[MsgID]*node
	store   map[MsgID]*Message
	waiting map[MsgID]*pendingMsg
	chases  map[MsgID]*chase
}

// ID reports the conversation id.
func (c *Conversation) ID() uint32 { return c.id }

// Peers reports the other participants.
func (c *Conversation) Peers() []xk.IPAddr {
	return append([]xk.IPAddr(nil), c.peers...)
}

// Leaves reports the current leaves of the local context graph — the
// messages a Send would depend on.
func (c *Conversation) Leaves() []MsgID {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.leavesLocked()
}

func (c *Conversation) leavesLocked() []MsgID {
	var out []MsgID
	for id, n := range c.graph {
		if n.isLeaf {
			out = append(out, id)
		}
	}
	return out
}

// Deps reports the recorded dependencies of a message in the graph.
func (c *Conversation) Deps(id MsgID) ([]MsgID, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.graph[id]
	if !ok {
		return nil, false
	}
	return append([]MsgID(nil), n.deps...), true
}

// Send publishes data to the conversation: the message depends on the
// current leaves, enters the local graph and store, and goes to every
// peer through the layer below.
func (c *Conversation) Send(data []byte) (MsgID, error) {
	if len(data) > c.p.cfg.MaxMsg {
		return MsgID{}, fmt.Errorf("psync: %d bytes: %w", len(data), xk.ErrMsgTooBig)
	}
	c.mu.Lock()
	c.seq++
	m := &Message{
		Conv: c.id,
		ID:   MsgID{Host: c.p.local, Seq: c.seq},
		Deps: c.leavesLocked(),
		Data: data,
	}
	c.insertLocked(m)
	c.store[m.ID] = m
	c.mu.Unlock()

	wire := encodeData(m)
	for _, peer := range c.peers {
		s, err := c.p.session(peer)
		if err != nil {
			return m.ID, err
		}
		if err := s.Push(msg.New(wire)); err != nil {
			return m.ID, err
		}
	}
	if trace.Enabled(trace.Packets) {
		trace.Printf(trace.Packets, c.p.Name(), "sent %s deps=%d len=%d", m.ID, len(m.Deps), len(data))
	}
	return m.ID, nil
}

// insertLocked adds a message to the graph, updating leaf status.
func (c *Conversation) insertLocked(m *Message) {
	for _, d := range m.Deps {
		if dn, ok := c.graph[d]; ok {
			dn.isLeaf = false
		}
	}
	c.graph[m.ID] = &node{id: m.ID, deps: m.Deps, isLeaf: true}
}

// receive folds an incoming message in: deliver immediately if its
// context is complete, otherwise park it and chase the missing
// dependencies.
func (c *Conversation) receive(m *Message) error {
	c.mu.Lock()
	if _, dup := c.graph[m.ID]; dup {
		c.mu.Unlock()
		return nil // duplicate delivery from the unreliable layer below
	}
	if _, parked := c.waiting[m.ID]; parked {
		c.mu.Unlock()
		return nil
	}
	missing := map[MsgID]bool{}
	for _, d := range m.Deps {
		if _, ok := c.graph[d]; !ok {
			missing[d] = true
		}
	}
	if len(missing) == 0 {
		c.deliverLocked(m)
		c.releaseWaitersLocked(m.ID)
		c.mu.Unlock()
		return nil
	}
	c.waiting[m.ID] = &pendingMsg{m: m, missing: missing}
	var toChase []MsgID
	for d := range missing {
		if _, already := c.chases[d]; !already && c.waitingFor(d) == nil {
			toChase = append(toChase, d)
		}
	}
	for _, d := range toChase {
		c.armChaseLocked(d)
	}
	c.mu.Unlock()
	trace.Printf(trace.Events, c.p.Name(), "parked %s: %d missing deps", m.ID, len(missing))
	return nil
}

// waitingFor reports the parked message with the given id, if any
// (a missing dep may itself be parked, waiting for deeper context).
func (c *Conversation) waitingFor(id MsgID) *pendingMsg {
	if pm, ok := c.waiting[id]; ok {
		return pm
	}
	return nil
}

// deliverLocked inserts and hands the message to the application.
func (c *Conversation) deliverLocked(m *Message) {
	c.insertLocked(m)
	c.store[m.ID] = m
	if ch, ok := c.chases[m.ID]; ok {
		ch.timer.Cancel()
		delete(c.chases, m.ID)
	}
	if c.deliver != nil && m.ID.Host != c.p.local {
		// Call outside the lock? The callback may Send, which takes
		// the lock; release around it.
		cb := c.deliver
		mm := *m
		c.mu.Unlock()
		cb(mm)
		c.mu.Lock()
	}
	if trace.Enabled(trace.Packets) {
		trace.Printf(trace.Packets, c.p.Name(), "delivered %s", m.ID)
	}
}

// releaseWaitersLocked re-examines parked messages after id arrived,
// delivering any whose context is now complete (cascading).
func (c *Conversation) releaseWaitersLocked(arrived MsgID) {
	for {
		var ready *pendingMsg
		for _, pm := range c.waiting {
			delete(pm.missing, arrived)
			if len(pm.missing) == 0 {
				ready = pm
				break
			}
		}
		if ready == nil {
			return
		}
		delete(c.waiting, ready.m.ID)
		c.deliverLocked(ready.m)
		arrived = ready.m.ID
	}
}

// armChaseLocked schedules retransmission requests for a missing
// message.
func (c *Conversation) armChaseLocked(id MsgID) {
	ch := &chase{}
	c.chases[id] = ch
	var fire func()
	fire = func() {
		c.mu.Lock()
		if c.chases[id] != ch {
			c.mu.Unlock()
			return
		}
		ch.retries++
		if ch.retries > c.p.cfg.ChaseRetries {
			delete(c.chases, id)
			// Give up: drop every parked message still missing it.
			for wid, pm := range c.waiting {
				if pm.missing[id] {
					delete(c.waiting, wid)
				}
			}
			c.mu.Unlock()
			trace.Printf(trace.Events, c.p.Name(), "gave up chasing %s", id)
			return
		}
		ch.timer = c.p.cfg.Clock.Schedule(c.p.cfg.ChaseTimeout, fire)
		c.mu.Unlock()
		if err := c.requestResend(id); err != nil {
			trace.Printf(trace.Events, c.p.Name(), "chase %s: %v", id, err)
		}
	}
	ch.timer = c.p.cfg.Clock.Schedule(c.p.cfg.ChaseTimeout, fire)
}

// requestResend asks the original sender for a message.
func (c *Conversation) requestResend(id MsgID) error {
	s, err := c.p.session(id.Host)
	if err != nil {
		return err
	}
	out := make([]byte, 0, 13)
	out = append(out, typeResend)
	out = binary.BigEndian.AppendUint32(out, c.id)
	out = append(out, id.Host[:]...)
	out = binary.BigEndian.AppendUint32(out, id.Seq)
	trace.Printf(trace.Events, c.p.Name(), "requesting %s from %s", id, id.Host)
	return s.Push(msg.New(out))
}

// honorResend replays a stored message to whoever asked.
func (c *Conversation) honorResend(id MsgID, lls xk.Session) error {
	c.mu.Lock()
	m, ok := c.store[id]
	c.mu.Unlock()
	if !ok {
		trace.Printf(trace.Events, c.p.Name(), "cannot honor resend of %s", id)
		return nil
	}
	return lls.Push(msg.New(encodeData(m)))
}

// Stable reports whether id is in the local graph (received or sent).
func (c *Conversation) Stable(id MsgID) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.graph[id]
	return ok
}

// Size reports the number of messages in the local graph.
func (c *Conversation) Size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.graph)
}
