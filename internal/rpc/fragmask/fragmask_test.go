package fragmask

import "testing"

func TestFull(t *testing.T) {
	for _, c := range []struct{ n, want uint16 }{
		{0, 0}, {1, 1}, {3, 0b111}, {15, 0x7fff}, {16, 0xffff}, {20, 0xffff},
	} {
		if got := Full(c.n); got != c.want {
			t.Errorf("Full(%d) = %#04x, want %#04x", c.n, got, c.want)
		}
	}
}

func TestIndex(t *testing.T) {
	for _, mask := range []uint16{0, 0b11, 0b101, 0xffff} {
		if got := Index(mask); got != -1 {
			t.Errorf("Index(%#04x) = %d, want -1: not a single bit", mask, got)
		}
	}
	for i := 0; i < Max; i++ {
		if got := Index(1 << i); got != i {
			t.Errorf("Index(1<<%d) = %d", i, got)
		}
	}
}

func TestCount(t *testing.T) {
	for _, c := range []struct{ length, size, want int }{
		{0, 100, 1}, {1, 100, 1}, {100, 100, 1}, {101, 100, 2}, {200, 100, 2}, {1601, 100, 17},
	} {
		if got := Count(c.length, c.size); got != c.want {
			t.Errorf("Count(%d, %d) = %d, want %d", c.length, c.size, got, c.want)
		}
	}
}
