package mrpc

import (
	"fmt"
	"sync"

	"xkernel/internal/ledger"
	"xkernel/internal/msg"
	"xkernel/internal/rpc/fragmask"
	"xkernel/internal/trace"
	"xkernel/internal/xk"
)

// srvKey identifies a client's channel at the server.
type srvKey struct {
	client  xk.IPAddr
	channel uint16
}

// srvChan is the server's state for one client channel: the at-most-once
// machinery. It remembers the boot incarnation, the last sequence number
// completed, and the fragment collector for the request in progress.
// The saved reply lives in the execution ledger, keyed by the same
// channel, which is what lets a durable ledger carry it across a crash.
// Each srvChan carries its own mutex so the at-most-once decision is
// atomic per client channel without a protocol-wide lock; the protocol
// srvMu is held only to look the srvChan up.
type srvChan struct {
	mu        sync.Mutex
	bootID    uint32
	lastSeq   uint32
	executing bool
	collect   collector
}

// ledgerKey is the execution-ledger name for a client channel.
func (p *Protocol) ledgerKey(k srvKey) ledger.Key {
	return ledger.Key{Peer: k.client, Proto: uint32(p.cfg.Proto), Channel: k.channel}
}

// replayBlob pushes a ledger-recorded reply back through lls exactly
// as it was originally framed — byte-for-byte, one push per fragment.
func replayBlob(lls xk.Session, blob []byte) error {
	frames, err := ledger.DecodeFrames(blob)
	if err != nil {
		return err
	}
	for _, fb := range frames {
		if err := lls.Push(msg.New(fb)); err != nil {
			return err
		}
	}
	return nil
}

// serveRequest implements the server half of the Sprite algorithm.
func (p *Protocol) serveRequest(h header, m *msg.Msg, lls xk.Session) error {
	key := srvKey{client: h.clntHost, channel: h.channel}
	lk := p.ledgerKey(key)

	if h.srvrProc != 0 && h.srvrProc != uint16(p.bootID.Load()) {
		// The request's epoch hint names an earlier incarnation of this
		// server: it may already have executed before the crash, so it
		// must not run again. The execution ledger remembers — if the
		// previous incarnation recorded exactly this request, replay
		// its cached reply byte-for-byte; only an unrecorded request
		// is rejected (it may have executed inside the ledger's
		// unsynced window). Checked before touching any channel state;
		// the reject reply carries the new boot id so the client
		// converges.
		if e, ok := p.cfg.Ledger.Lookup(lk); ok && e.ClientBoot == h.bootID && e.Seq == h.seq {
			p.ctr.ledgerReplays.Add(1)
			p.ctr.replayedReplies.Add(1)
			trace.Printf(trace.Events, p.Name(), "ledger replay seq=%d to %s (executed before crash)",
				h.seq, h.clntHost)
			return replayBlob(lls, e.Reply)
		}
		p.ctr.staleEpochRejects.Add(1)
		boot := p.bootID.Load()
		trace.Printf(trace.Events, p.Name(), "reject stale epoch %d (now %d) from %s seq=%d",
			h.srvrProc, boot, h.clntHost, h.seq)
		return p.sendReject(h, boot, lls)
	}
	p.srvMu.Lock()
	sc := p.servers[key]
	p.srvMu.Unlock()
	if sc == nil {
		// The recovery seed is consulted only by a request that creates
		// the channel state, so only such a request looks it up — outside
		// srvMu, to keep that lock narrow, then the miss is re-checked.
		seed, haveSeed := p.cfg.Ledger.Lookup(lk)
		p.srvMu.Lock()
		if sc = p.servers[key]; sc == nil {
			sc = &srvChan{bootID: h.bootID}
			// A recovered incarnation resumes the duplicate filter where
			// the old one left off, so a request the ledger already holds
			// is treated as the duplicate it is, not as new work.
			if haveSeed && seed.ClientBoot == h.bootID {
				sc.lastSeq = seed.Seq
			}
			p.servers[key] = sc
		}
		p.srvMu.Unlock()
	}

	sc.mu.Lock()
	if sc.bootID != h.bootID {
		// The client rebooted: everything we remember about this
		// channel belongs to a dead incarnation, including its ledger
		// entry.
		trace.Printf(trace.Events, p.Name(), "client %s rebooted (boot %d -> %d), resetting channel %d",
			h.clntHost, sc.bootID, h.bootID, h.channel)
		sc.bootID = h.bootID
		sc.lastSeq = 0
		sc.executing = false
		sc.collect.reset()
		//xk:allow locksafety — retire must be ordered with the boot-epoch flip under sc.mu; the fsync Schedule only enqueues
		if err := p.cfg.Ledger.Retire(lk); err != nil {
			trace.Printf(trace.Events, p.Name(), "ledger retire channel=%d: %v", h.channel, err)
		}
	}

	switch {
	case sc.lastSeq != 0 && h.seq < sc.lastSeq:
		// Older than anything interesting: drop (at-most-once).
		p.ctr.duplicateRequests.Add(1)
		sc.mu.Unlock()
		return nil

	case h.seq == sc.lastSeq:
		// Duplicate of the last completed or in-progress request.
		p.ctr.duplicateRequests.Add(1)
		if sc.executing {
			// Still working: an explicit ack with the full mask
			// tells the client to stop retransmitting.
			p.ctr.acksSent.Add(1)
			sc.mu.Unlock()
			return p.sendAck(h, fragmask.Full(h.numFrags), lls)
		}
		if e, ok := p.cfg.Ledger.Lookup(lk); ok && e.ClientBoot == h.bootID && e.Seq == h.seq {
			// "timeouts trigger retransmissions which sometimes
			// elicit explicit acknowledgements" — or, here, a
			// replay of the recorded reply.
			p.ctr.replayedReplies.Add(1)
			sc.mu.Unlock()
			trace.Printf(trace.Events, p.Name(), "replay reply seq=%d to %s", h.seq, h.clntHost)
			return replayBlob(lls, e.Reply)
		}
		sc.mu.Unlock()
		return nil

	default: // h.seq > sc.lastSeq: a new request.
		// Receipt of a new request implicitly acknowledges the
		// previous reply; its ledger entry is overwritten when this
		// request records its own.
		args := m // a one-fragment request is complete as it stands
		if !oneFragment(h) || sc.collect.collecting(h.seq) {
			if !sc.collect.collecting(h.seq) {
				sc.collect.start(h.seq, h.numFrags)
			}
			complete := sc.collect.add(h.fragMask, m)
			if !complete {
				var ack bool
				var mask uint16
				if h.flags&flagPleaseAck != 0 {
					// Partial acknowledgement: report which
					// fragments arrived so the client resends only
					// the missing ones.
					ack = true
					mask = sc.collect.mask
					p.ctr.acksSent.Add(1)
				}
				sc.mu.Unlock()
				if ack {
					return p.sendAck(h, mask, lls)
				}
				return nil
			}
			args = sc.collect.assemble()
		}
		sc.collect.reset() // a part-collected older request is superseded
		sc.lastSeq = h.seq
		sc.executing = true
		sc.mu.Unlock()
		handler := (*p.handlers.Load())[h.command]
		if f := p.fallback.Load(); handler == nil && f != nil {
			handler = *f
		}
		p.ctr.requestsServed.Add(1)

		return p.execute(h, sc, key, handler, args, lls)
	}
}

// execute runs the handler on the shepherd goroutine and sends the reply.
func (p *Protocol) execute(h header, sc *srvChan, key srvKey, handler Handler, args *msg.Msg, lls xk.Session) error {
	var reply *msg.Msg
	var herr error
	if handler == nil {
		herr = fmt.Errorf("no handler for command %d", h.command)
	} else {
		reply, herr = handler(h.command, args)
	}
	flags := flagReply
	if herr != nil {
		flags |= flagError
		reply = msg.New([]byte(herr.Error()))
		p.ctr.errors.Add(1)
	}
	if reply == nil {
		reply = msg.Empty()
	}

	// A reply that fits one packet is framed in place (execute consumes
	// the handler's reply); a longer one is split.
	var one [1]*msg.Msg
	frames := one[:]
	if reply.Len() <= p.cfg.MaxPacket-HeaderLen && xk.RoomInPlace(reply, HeaderLen) {
		p.pushReplyHeader(reply, h, flags, 1, 1)
		one[0] = reply
	} else {
		var err error
		if frames, err = p.frameReply(h, flags, reply); err != nil {
			return err
		}
	}

	// Write-ahead: record the executed request and its framed reply
	// before any fragment leaves this host, so no reply is on the wire
	// without a record a recovered incarnation can replay. A record
	// failure suppresses the reply (the client retransmits) rather
	// than risking a duplicate execution later.
	sc.mu.Lock()
	sc.executing = false
	//xk:allow locksafety — write-ahead by design: Record must commit under sc.mu before the reply frames leave; its fsync Schedule only enqueues, the sync handler re-locks on a later dispatch
	rerr := p.cfg.Ledger.Record(p.ledgerKey(key), ledger.Entry{
		ClientBoot: sc.bootID,
		Seq:        h.seq,
		Reply:      ledger.EncodeMsgs(frames...),
	})
	sc.mu.Unlock()
	if rerr != nil {
		return fmt.Errorf("%s: ledger record seq=%d: %w", p.Name(), h.seq, rerr)
	}

	for _, f := range frames {
		if err := lls.Push(f); err != nil {
			return err
		}
	}
	return nil
}

// frameReply fragments and frames a reply payload too long for one
// packet, for the wire and for the ledger record that replays survive
// from.
func (p *Protocol) frameReply(req header, flags uint16, reply *msg.Msg) ([]*msg.Msg, error) {
	if reply.Len() > p.cfg.MaxMsg {
		return nil, fmt.Errorf("%s: reply %d bytes: %w", p.Name(), reply.Len(), xk.ErrMsgTooBig)
	}
	maxFrag := p.cfg.MaxPacket - HeaderLen
	if n := fragmask.Count(reply.Len(), maxFrag); n > fragmask.Max {
		return nil, fmt.Errorf("%s: reply needs %d fragments: %w", p.Name(), n, xk.ErrMsgTooBig)
	}
	frags, err := reply.Split(maxFrag, msg.DefaultLeader)
	if err != nil {
		return nil, err
	}
	for i, f := range frags {
		p.pushReplyHeader(f, req, flags, uint16(len(frags)), 1<<i)
	}
	return frags, nil
}

// pushReplyHeader frames f as fragment fragMask of numFrags of the reply
// to req.
func (p *Protocol) pushReplyHeader(f *msg.Msg, req header, flags, numFrags, fragMask uint16) {
	h := header{
		flags:    flags,
		clntHost: req.clntHost,
		srvrHost: req.srvrHost,
		channel:  req.channel,
		srvrProc: req.srvrProc,
		seq:      req.seq,
		numFrags: numFrags,
		fragMask: fragMask,
		command:  req.command,
		bootID:   p.bootID.Load(),
		data1Sz:  uint16(f.Len()),
	}
	var hb [HeaderLen]byte
	h.encode(hb[:])
	f.MustPush(hb[:])
}

// sendReject answers a stale-epoch request with a single-fragment
// flagReply|flagRebooted reply carrying the server's current boot id.
func (p *Protocol) sendReject(req header, boot uint32, lls xk.Session) error {
	h := header{
		flags:    flagReply | flagRebooted,
		clntHost: req.clntHost,
		srvrHost: req.srvrHost,
		channel:  req.channel,
		seq:      req.seq,
		numFrags: 1,
		fragMask: 1,
		command:  req.command,
		bootID:   boot,
	}
	var hb [HeaderLen]byte
	h.encode(hb[:])
	m := msg.Empty()
	m.MustPush(hb[:])
	return lls.Push(m)
}

// sendAck sends an explicit acknowledgement carrying the mask of request
// fragments received so far.
func (p *Protocol) sendAck(req header, mask uint16, lls xk.Session) error {
	h := header{
		flags:    flagAck,
		clntHost: req.clntHost,
		srvrHost: req.srvrHost,
		channel:  req.channel,
		seq:      req.seq,
		numFrags: req.numFrags,
		fragMask: mask,
		command:  req.command,
		bootID:   p.BootID(),
	}
	var hb [HeaderLen]byte
	h.encode(hb[:])
	m := msg.Empty()
	m.MustPush(hb[:])
	trace.Printf(trace.Events, p.Name(), "explicit ack seq=%d mask=%#04x to %s", req.seq, mask, req.clntHost)
	return lls.Push(m)
}
