// Package fragmask is the arithmetic of the 16-bit frag_mask that both
// fragmenting protocols carry in their headers (FRAGMENT_HDR and
// SPRITE_HDR): bit i stands for fragment i of a message, so a message has
// at most Max fragments.
package fragmask

import "math/bits"

// Max is the most fragments a message can have: one per mask bit. A
// num_frags field claiming more is corrupt.
const Max = 16

// Full returns the mask with the low n bits set: every fragment of an
// n-fragment message.
func Full(n uint16) uint16 {
	if n >= Max {
		return 0xffff
	}
	return uint16(1)<<n - 1
}

// Index returns the index of the single set bit in mask, or -1 if mask
// does not name exactly one fragment.
func Index(mask uint16) int {
	if bits.OnesCount16(mask) != 1 {
		return -1
	}
	return bits.TrailingZeros16(mask)
}

// Count reports how many fragments of at most size bytes carry a message
// of length bytes. It is never zero: an empty message still travels, as
// one empty fragment.
func Count(length, size int) int {
	if length <= size {
		return 1
	}
	return (length + size - 1) / size
}
