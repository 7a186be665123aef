package fragment

import (
	"testing"
	"testing/quick"

	"xkernel/internal/xk"
)

// Property: the FRAGMENT_HDR codec is the identity on its field domain.
func TestQuickHeaderCodec(t *testing.T) {
	f := func(typ uint8, ch, sh, protoNum, seq uint32, numFrags, fragMask, length uint16) bool {
		h := header{
			typ: typ, clntHost: xk.IPFromU32(ch), srvrHost: xk.IPFromU32(sh),
			protoNum: protoNum, seq: seq, numFrags: numFrags, fragMask: fragMask, length: length,
		}
		var b [HeaderLen]byte
		h.encode(b[:])
		return decodeHeader(b[:]) == h
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
