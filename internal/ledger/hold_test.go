package ledger

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"xkernel/internal/msg"
)

// reply is a three-frame framed reply, the last frame's chain out of line
// as a reassembled echo's is, and the bytes each frame leaves as.
func reply(tag byte) ([]*msg.Msg, [][]byte) {
	data := bytes.Repeat([]byte{tag}, 300)
	spilled := msg.New(data[:100])
	spilled.Append(data[100:200])
	spilled.Append(data[200:])
	frames := []*msg.Msg{msg.New(data[:10]), msg.New(data[:50]), spilled}
	var want [][]byte
	for i, f := range frames {
		f.MustPush([]byte{'h', tag, byte(i)})
		want = append(want, f.Bytes())
	}
	return frames, want
}

// consume does to a recorded frame what the layers below and the wire
// do once it is pushed: push headers onto it, then pop it to its end.
func consume(frames []*msg.Msg) {
	for _, f := range frames {
		f.MustPush([]byte("lower"))
		for f.Len() > 0 {
			f.Pop(min(7, f.Len()))
		}
	}
}

func holds(t *testing.T, e Entry, want [][]byte) {
	t.Helper()
	if len(e.Frames) != len(want) {
		t.Fatalf("%d frames held, want %d", len(e.Frames), len(want))
	}
	for i, f := range e.Frames {
		if !bytes.Equal(f.Bytes(), want[i]) {
			t.Fatalf("frame %d held as %q, want %q", i, f.Bytes(), want[i])
		}
	}
}

// Mem holds a reply recorded as frames by value: the frames it was handed
// go on to be pushed and consumed, and what it holds is still the reply as
// it was framed. Its byte count is the frames' bytes.
func TestMemHoldsFramesByValue(t *testing.T) {
	m := NewMem(MemOptions{})
	frames, want := reply('a')
	if err := m.Record(testKey(1), Entry{ClientBoot: 1, Seq: 1, Frames: frames}); err != nil {
		t.Fatal(err)
	}
	consume(frames)
	e, ok := m.Lookup(testKey(1))
	if !ok || e.Seq != 1 || e.Reply != nil {
		t.Fatalf("lookup = %+v %v", e, ok)
	}
	holds(t, e, want)
	var n int64
	for _, w := range want {
		n += int64(len(w))
	}
	if got := m.Stats().Bytes; got != n {
		t.Fatalf("Stats.Bytes = %d, want the frames' %d", got, n)
	}
	if d := m.Dump(); len(d) != 1 || d[0].ReplyBytes != int(n) {
		t.Fatalf("Dump = %+v, want one entry of %d bytes", d, n)
	}
}

// Two records back to back on one key do not reach frames a Lookup lent
// out before them: the replay that borrowed them reads the reply it looked
// up, and the later records hold theirs.
func TestMemLentFramesOutliveLaterRecords(t *testing.T) {
	m := NewMem(MemOptions{})
	k := testKey(1)
	a, wantA := reply('a')
	m.Record(k, Entry{ClientBoot: 1, Seq: 1, Frames: a})
	lent, _ := m.Lookup(k)
	for seq, tag := range []byte{'b', 'c'} {
		frames, want := reply(tag)
		m.Record(k, Entry{ClientBoot: 1, Seq: uint32(seq) + 2, Frames: frames})
		consume(frames)
		e, _ := m.Lookup(k)
		holds(t, e, want)
	}
	holds(t, lent, wantA)
}

// File encodes a reply recorded as frames before its write: its segments
// are the bytes the same reply recorded as an EncodeMsgs blob makes, and
// its Lookup returns that blob.
func TestFileRecordsFramesAsTheirBlob(t *testing.T) {
	dirs := [2]string{t.TempDir(), t.TempDir()}
	for i, dir := range dirs {
		f, err := NewFile(dir, FileOptions{Fsync: FsyncNever})
		if err != nil {
			t.Fatal(err)
		}
		frames, want := reply('a')
		e := Entry{ClientBoot: 1, Seq: 1, Frames: frames}
		if i == 1 {
			e = Entry{ClientBoot: 1, Seq: 1, Reply: EncodeMsgs(frames...)}
		}
		if err := f.Record(testKey(1), e); err != nil {
			t.Fatal(err)
		}
		consume(frames)
		got, _ := f.Lookup(testKey(1))
		if !bytes.Equal(got.Reply, EncodeFrames(want...)) || got.Frames != nil {
			t.Fatalf("lookup = %+v, want the frames' blob", got)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := filepath.Glob(filepath.Join(dirs[0], "*"+segSuffix))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments %v (%v)", segs, err)
	}
	a, _ := os.ReadFile(segs[0])
	b, _ := os.ReadFile(filepath.Join(dirs[1], filepath.Base(segs[0])))
	if len(a) == 0 || !bytes.Equal(a, b) {
		t.Fatalf("recording frames wrote %d bytes, recording their blob %d, and they differ", len(a), len(b))
	}
}
