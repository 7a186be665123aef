package amo_test

import (
	"bytes"
	"testing"

	"xkernel/internal/ledger"
	"xkernel/internal/msg"
	"xkernel/internal/rpc/amo"
	"xkernel/internal/xk"
)

// below stands for the layers under an engine and the wire: it pushes a
// header of its own onto each frame it is handed, keeps the frame as it
// leaves, then consumes the message to its end, as the receiving host
// does with a frame on the simulator's message path.
type below struct {
	xk.BaseSession
	sent [][]byte
}

func (b *below) Push(m *msg.Msg) error {
	m.MustPush([]byte("lower"))
	b.sent = append(b.sent, m.Bytes())
	for m.Len() > 0 {
		if _, err := m.Pop(min(7, m.Len())); err != nil {
			return err
		}
	}
	return nil
}

// framed builds the reply shapes the engines record: a CHANNEL reply is
// one frame, an M.RPC reply of 4 KB three, and CHANNEL's echo of a 4 KB
// request one frame whose chain is the reassembled request's, out of line.
func framed(shape string) []*msg.Msg {
	data := msg.MakeData(4096)
	hdr := []byte("engine header")
	var frames []*msg.Msg
	switch shape {
	case "one frame":
		frames = []*msg.Msg{msg.New(data[:64])}
	case "three frames":
		frames = []*msg.Msg{msg.New(data[:1400]), msg.New(data[1400:2800]), msg.New(data[2800:])}
	case "spilled echo":
		m := msg.New(data[:1400])
		m.Append(data[1400:2800])
		m.Append(data[2800:])
		frames = []*msg.Msg{m}
	}
	for _, f := range frames {
		f.MustPush(hdr)
	}
	return frames
}

// A reply is recorded, sent and consumed below; the retransmission's
// replay leaves byte for byte as the original did, and so does a second
// replay after the first was consumed in its turn.
func TestReplayIsTheRecordedFrames(t *testing.T) {
	for _, shape := range []string{"one frame", "three frames", "spilled echo"} {
		t.Run(shape, func(t *testing.T) {
			var h amo.Host
			h.Init("test/amo", thisBoot, ledger.NewMem(ledger.MemOptions{}))
			ch, cp := serve(t, &h, request(5), "", true)
			frames := framed(shape)
			if err := ch.Record(cp, frames...); err != nil {
				t.Fatal(err)
			}
			var original below
			if err := amo.Resend(&original, frames); err != nil {
				t.Fatal(err)
			}
			for attempt := 1; attempt <= 2; attempt++ {
				_, v, replay := h.Admit(request(5))
				if v != amo.Replay {
					t.Fatalf("retransmission %d admitted as %d, want Replay", attempt, v)
				}
				var again below
				if err := amo.Resend(&again, replay); err != nil {
					t.Fatal(err)
				}
				if len(again.sent) != len(original.sent) {
					t.Fatalf("replay %d is %d frames, the original %d", attempt, len(again.sent), len(original.sent))
				}
				for i := range again.sent {
					if !bytes.Equal(again.sent[i], original.sent[i]) {
						t.Fatalf("replay %d, frame %d differs from the original", attempt, i)
					}
				}
			}
		})
	}
}

// A replay taken from the ledger is the reply it was admitted for even
// when the channel records two newer replies before it is pushed.
func TestReplayOutlivesLaterRecords(t *testing.T) {
	var h amo.Host
	h.Init("test/amo", thisBoot, ledger.NewMem(ledger.MemOptions{}))
	serve(t, &h, request(5), "five", false)
	_, v, replay := h.Admit(request(5))
	if v != amo.Replay {
		t.Fatalf("retransmission admitted as %d, want Replay", v)
	}
	serve(t, &h, request(6), "six", false)
	serve(t, &h, request(7), "seven", false)
	var out below
	if err := amo.Resend(&out, replay); err != nil {
		t.Fatal(err)
	}
	if len(out.sent) != 1 || string(out.sent[0]) != "lowerfive" {
		t.Fatalf("replay of seq 5 sent %q, want \"lowerfive\"", out.sent)
	}
}
