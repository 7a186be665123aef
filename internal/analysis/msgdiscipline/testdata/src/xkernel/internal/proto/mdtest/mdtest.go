// Exercises the msg ownership contract: Pop/Peek slices are read-only
// and die at the message's next mutation.
package mdtest

import (
	"xkernel/internal/msg"
	"xkernel/internal/xk"
)

func useAfterMutation(m *msg.Msg) byte {
	hb, err := m.Pop(4)
	if err != nil {
		return 0
	}
	m.MustPush([]byte{1, 2, 3, 4})
	return hb[0] // want "used after m.MustPush mutated the message"
}

func useBeforeMutation(m *msg.Msg) byte {
	hb, err := m.Pop(4)
	if err != nil {
		return 0
	}
	b := hb[0]
	m.MustPush([]byte{1, 2, 3, 4})
	return b
}

func copyThenMutate(m *msg.Msg) []byte {
	hb, err := m.Peek(4)
	if err != nil {
		return nil
	}
	saved := make([]byte, 4)
	copy(saved, hb)
	m.Truncate(0)
	return saved
}

func writeThrough(m *msg.Msg) {
	hb, err := m.Pop(2)
	if err != nil {
		return
	}
	hb[0] = 0xff // want "write into slice returned by m.Pop"
}

func appendTo(m *msg.Msg) []byte {
	hb, err := m.Peek(2)
	if err != nil {
		return nil
	}
	return append(hb, 0xff) // want "append to slice returned by m.Peek"
}

func copyInto(m *msg.Msg, src []byte) {
	hb, err := m.Pop(2)
	if err != nil {
		return
	}
	copy(hb, src) // want "copy into slice returned by m.Pop"
}

// Mutating a different message leaves the slice alive.
func twoMessages(a, b *msg.Msg) byte {
	hb, err := a.Pop(4)
	if err != nil {
		return 0
	}
	b.MustPush([]byte{9})
	return hb[0]
}

// Rule 3: a message handed to Push, Call or SendMsg is dead.

type caller interface {
	xk.Session
	Call(m *msg.Msg) (*msg.Msg, error)
}

type link interface {
	SendMsg(dst xk.EthAddr, m *msg.Msg) error
}

func useAfterPush(s xk.Session, m *msg.Msg) (int, error) {
	if err := s.Push(m); err != nil {
		return m.Len(), err // want "m used after s.Push consumed it"
	}
	return 0, nil
}

func useAfterCall(s caller, m *msg.Msg) int {
	s.Call(m)
	return m.Len() // want "m used after s.Call consumed it"
}

func useAfterSendMsg(l link, dst xk.EthAddr, m *msg.Msg) int {
	l.SendMsg(dst, m)
	return m.Len() // want "m used after l.SendMsg consumed it"
}

func lenBeforePush(s xk.Session, m *msg.Msg) (int, error) {
	n := m.Len()
	return n, s.Push(m)
}

// A push in a block that returns kills nothing after the block.
func pushOnOnePath(small, big xk.Session, m *msg.Msg) error {
	if m.Len() <= 1500 {
		return small.Push(m)
	}
	m.MustPush([]byte{1})
	return big.Push(m)
}

func pushThenFallThrough(s xk.Session, m *msg.Msg, verbose bool) int {
	if verbose {
		s.Push(m)
	}
	return m.Len() // want "m used after s.Push consumed it"
}

// The retransmission shape: every transmission after the first is a
// clone of a copy held by value, and the variable is assigned before
// it is used again.
func retransmit(s xk.Session, m *msg.Msg) error {
	var held msg.Msg
	m.CopyInto(&held)
	for attempt := 0; attempt < 3; attempt++ {
		out := m
		if attempt > 0 {
			out = held.Clone()
		}
		out.MustPush([]byte{byte(attempt)})
		if err := s.Push(out); err != nil {
			return err
		}
	}
	return nil
}

func freshMessage(s xk.Session, m *msg.Msg) int {
	s.Push(m)
	m = msg.Empty()
	return m.Len()
}

func twoPushes(s xk.Session, m *msg.Msg) {
	s.Push(m)
	s.Push(m) // want "m used after s.Push consumed it"
}

// A closure is a function of its own.
func inClosure(s xk.Session, m *msg.Msg) func() int {
	return func() int {
		s.Push(m)
		return m.Len() // want "m used after s.Push consumed it"
	}
}

// Push on something that is not a session consumes nothing.
type stack struct{ items []*msg.Msg }

func (st *stack) Push(m *msg.Msg) { st.items = append(st.items, m) }

func notASession(st *stack, m *msg.Msg) int {
	st.Push(m)
	return m.Len()
}
