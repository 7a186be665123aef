// Package waltest mirrors the shapes of the channel/mrpc server
// paths the walorder pass governs: reply construction with and
// without the write-ahead Record, the exempt control-frame and replay
// origins, and handler dispatch with the dedup Lookup established
// locally, by a caller, or not at all — against the ledger directly and
// through the at-most-once core (amo) the engines share.
//
// Deleting the Record call from reply turns it into replyUnlogged —
// the pass fires, which is the acceptance property the fixture pins.
package waltest

import (
	"xkernel/internal/ledger"
	"xkernel/internal/msg"
	"xkernel/internal/rpc/amo"
)

const (
	flagRequest = 1 << iota
	flagReply
)

type header struct {
	flags uint8
}

type session interface {
	Push(m *msg.Msg) error
}

// Handler is the named dispatch type rule 2 watches.
type Handler func(m *msg.Msg) ([]byte, error)

type demuxer interface {
	Demux(lls session, m *msg.Msg) error
}

type server struct {
	led  ledger.ExecLedger
	down session
	h    Handler
}

// reply follows the write-ahead discipline: Record commits before the
// reply leaves.
func (s *server) reply(k ledger.Key, m *msg.Msg) error {
	hdr := header{flags: flagReply}
	_ = hdr
	if err := s.led.Record(k, ledger.Entry{}); err != nil {
		return err
	}
	return s.down.Push(m)
}

// replyUnlogged is reply with the Record deleted: a crash between
// send and log would re-execute the handler on retransmit.
func (s *server) replyUnlogged(m *msg.Msg) error {
	hdr := header{flags: flagReply}
	_ = hdr
	return s.down.Push(m) // want "reply pushed without a preceding ExecLedger.Record"
}

// ack pushes a control frame: the msg.Empty origin is exempt.
func (s *server) ack() error {
	hdr := header{flags: flagReply}
	_ = hdr
	m := msg.Empty()
	return s.down.Push(m)
}

// parseReply only reads the flag; client-side parsing stays out of
// rule 1's scope.
func (s *server) parseReply(h header, m *msg.Msg) error {
	if h.flags&flagReply != 0 {
		return s.down.Push(m)
	}
	return nil
}

// serve establishes the dedup Lookup before dispatching.
func (s *server) serve(k ledger.Key, m *msg.Msg) error {
	if e, ok := s.led.Lookup(k); ok {
		_ = e
		return nil
	}
	_, err := s.h(m)
	return err
}

// serveUnchecked executes user code with no Lookup anywhere.
func (s *server) serveUnchecked(m *msg.Msg) error {
	_, err := s.h(m) // want "handler dispatched without a preceding ExecLedger.Lookup"
	return err
}

// demuxUnchecked dispatches through the interface without the lookup.
func (s *server) demuxUnchecked(d demuxer, m *msg.Msg) error {
	return d.Demux(s.down, m) // want "handler dispatched without a preceding ExecLedger.Lookup"
}

// dispatch has no Lookup of its own; its only caller establishes it,
// which the pass verifies through the call graph.
func (s *server) dispatch(m *msg.Msg) error {
	_, err := s.h(m)
	return err
}

// serveViaDispatch is dispatch's only caller and looks up first.
func (s *server) serveViaDispatch(k ledger.Key, m *msg.Msg) error {
	if _, ok := s.led.Lookup(k); ok {
		return nil
	}
	return s.dispatch(m)
}

// engine is a server over the at-most-once core: the core's admission
// and its write-ahead Record stand for the ledger calls they make.
type engine struct {
	host *amo.Host
	down session
	h    Handler
}

// serve admits through the core before dispatching.
func (e *engine) serve(r amo.Request, m *msg.Msg) error {
	ch, v, _ := e.host.Admit(r)
	if v != amo.New {
		return nil
	}
	ch.Commit(r.Seq)
	_, err := e.h(m)
	return err
}

// reply records through the core before the reply leaves.
func (e *engine) reply(ch *amo.Chan, cp amo.Capture, m *msg.Msg) error {
	hdr := header{flags: flagReply}
	_ = hdr
	if err := ch.Record(cp, m); err != nil {
		return err
	}
	return e.down.Push(m)
}

// replyUnrecorded is reply without the core's Record: it holds the
// channel, but nothing reaches the ledger before the push.
func (e *engine) replyUnrecorded(ch *amo.Chan, m *msg.Msg) error {
	hdr := header{flags: flagReply}
	_ = hdr
	_ = ch.Key()
	return e.down.Push(m) // want "reply pushed without a preceding ExecLedger.Record"
}

// replay re-pushes a reply recorded on a previous execution: what
// amo.Host.Admit returns for Replay is exempt (the Record already
// happened).
func (e *engine) replay(r amo.Request) error {
	hdr := header{flags: flagReply}
	_ = hdr
	_, v, frames := e.host.Admit(r)
	if v != amo.Replay {
		return nil
	}
	for _, f := range frames {
		if err := e.down.Push(f); err != nil {
			return err
		}
	}
	return nil
}

// replyThenRecord records only after the reply left: the write-ahead
// order reversed, which a crash in between turns into a re-execution.
func (e *engine) replyThenRecord(ch *amo.Chan, cp amo.Capture, m *msg.Msg) error {
	hdr := header{flags: flagReply}
	_ = hdr
	if err := e.down.Push(m); err != nil { // want "reply pushed without a preceding ExecLedger.Record"
		return err
	}
	return ch.Record(cp, m)
}

// serveUnadmitted dispatches with no admission anywhere.
func (e *engine) serveUnadmitted(m *msg.Msg) error {
	_, err := e.h(m) // want "handler dispatched without a preceding ExecLedger.Lookup"
	return err
}
