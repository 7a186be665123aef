package mrpc

import (
	"fmt"

	"xkernel/internal/ledger"
	"xkernel/internal/msg"
	"xkernel/internal/rpc/amo"
	"xkernel/internal/rpc/fragmask"
	"xkernel/internal/xk"
)

// ClientRebooted drops a request part-collected for the client's
// previous incarnation: a collector is M.RPC's own per-channel server
// state, kept on the at-most-once core's Chan.
func (c *collector) ClientRebooted() { c.reset() }

// serveRequest implements the server half of the Sprite algorithm: the
// at-most-once core decides, and a request of several fragments collects
// under the channel's lock between the core's New and its Commit.
func (p *Protocol) serveRequest(h header, m *msg.Msg, lls xk.Session) error {
	ch, v, replay := p.host.Admit(amo.Request{
		Key:        ledger.Key{Peer: h.clntHost, Proto: uint32(p.cfg.Proto), Channel: h.channel},
		Hint:       h.srvrProc,
		ClientBoot: h.bootID,
		Seq:        h.seq,
	})
	switch v {
	case amo.Reject:
		return p.sendControl(h, flagReply|flagRebooted, 1, 1, lls)
	case amo.Replay:
		// "timeouts trigger retransmissions which sometimes elicit
		// explicit acknowledgements" — or, here, a replay of the
		// recorded reply.
		return amo.Resend(lls, replay)
	case amo.Ack:
		// Still working, on this request or one it waits behind: the
		// full mask makes the client's next attempt re-probe with all.
		p.ctr.acksSent.Add(1)
		return p.sendControl(h, flagAck, h.numFrags, fragmask.Full(h.numFrags), lls)
	case amo.Drop:
		return nil
	}
	// New: the channel is locked until Commit or Release.
	args := m // a one-fragment request is complete as it stands
	col, _ := ch.State.(*collector)
	if !oneFragment(h) || col.collecting(h.seq) {
		if col == nil {
			col = new(collector)
			ch.State = col
		}
		if !col.collecting(h.seq) {
			col.start(h.seq, h.numFrags)
		}
		if !col.add(h.fragMask, m) {
			mask := col.mask
			ch.Release()
			if h.flags&flagPleaseAck == 0 {
				return nil
			}
			// Partial acknowledgement: report which fragments arrived so
			// the client resends only the missing ones.
			p.ctr.acksSent.Add(1)
			return p.sendControl(h, flagAck, h.numFrags, mask, lls)
		}
		args = col.assemble()
	}
	col.reset() // a part-collected older request is superseded
	cp := ch.Commit(h.seq)
	handler := (*p.handlers.Load())[h.command]
	if f := p.fallback.Load(); handler == nil && f != nil {
		handler = *f
	}
	return p.execute(h, ch, cp, handler, args, lls)
}

// execute runs the handler on the shepherd goroutine and sends the reply.
func (p *Protocol) execute(h header, ch *amo.Chan, cp amo.Capture, handler Handler, args *msg.Msg, lls xk.Session) error {
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
	// the handler's reply); a longer one is cut into fragments. Either
	// way the frames are listed in an array on this stack.
	var one [1]*msg.Msg
	frames := one[:]
	if reply.Len() <= p.cfg.MaxPacket-HeaderLen && xk.RoomInPlace(reply, HeaderLen) {
		p.pushReplyHeader(reply, h, flags, 1, 1)
		one[0] = reply
	} else {
		var all [fragmask.Max]*msg.Msg
		var err error
		if frames, err = p.frameReply(h, flags, reply, &all); err != nil {
			ch.Abort(cp)
			return err
		}
	}

	// Write-ahead: the framed reply is recorded before any fragment of it
	// leaves this host.
	if err := ch.Record(cp, frames...); err != nil {
		return fmt.Errorf("%s: reply seq=%d: %w", p.Name(), h.seq, err)
	}

	for _, f := range frames {
		if err := lls.Push(f); err != nil {
			return err
		}
	}
	return nil
}

// frameReply cuts a reply payload too long for one packet into fragments
// and frames them, for the wire and for the ledger record that replays
// survive from. The frames are listed in buf, and returned as its prefix.
func (p *Protocol) frameReply(req header, flags uint16, reply *msg.Msg, buf *[fragmask.Max]*msg.Msg) ([]*msg.Msg, error) {
	if reply.Len() > p.cfg.MaxMsg {
		return nil, fmt.Errorf("%s: reply %d bytes: %w", p.Name(), reply.Len(), xk.ErrMsgTooBig)
	}
	maxFrag := p.cfg.MaxPacket - HeaderLen
	n := fragmask.Count(reply.Len(), maxFrag)
	if n > fragmask.Max {
		return nil, fmt.Errorf("%s: reply needs %d fragments: %w", p.Name(), n, xk.ErrMsgTooBig)
	}
	var c msg.Cutter
	c.Reset(n)
	frames := buf[:n]
	for i := range frames {
		off := i * maxFrag
		f, err := c.Fragment(reply, off, min(reply.Len()-off, maxFrag), msg.DefaultLeader)
		if err != nil {
			return nil, err
		}
		p.pushReplyHeader(f, req, flags, uint16(n), 1<<i)
		frames[i] = f
	}
	return frames, nil
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
		bootID:   p.BootID(),
		data1Sz:  uint16(f.Len()),
	}
	var hb [HeaderLen]byte
	h.encode(hb[:])
	f.MustPush(hb[:])
}

// sendControl answers req with an empty frame: an explicit ack carrying
// the mask of request fragments received so far, or a stale-epoch reject
// (flagReply|flagRebooted, one fragment) carrying the current boot id.
func (p *Protocol) sendControl(req header, flags, numFrags, mask uint16, lls xk.Session) error {
	h := header{
		flags:    flags,
		clntHost: req.clntHost,
		srvrHost: req.srvrHost,
		channel:  req.channel,
		seq:      req.seq,
		numFrags: numFrags,
		fragMask: mask,
		command:  req.command,
		bootID:   p.BootID(),
	}
	var hb [HeaderLen]byte
	h.encode(hb[:])
	m := msg.Empty()
	m.MustPush(hb[:])
	return lls.Push(m)
}
