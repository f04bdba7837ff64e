package matrix

import (
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/bits"
)

// FillSeeded fills each matrix in turn, in place and in row-major order,
// from one counter-based stream: stream element k is a wyrand mix of
// seed + (k+1)·γ mapped exactly to [−1, 1), a pure function of (seed, k) on
// every GOARCH. The second matrix continues the stream where the first
// ended, so FillSeeded(seed, a, b) gives the A and B of the job (N, seed)
// whatever memory they occupy and whatever it held before.
func FillSeeded(seed int64, ms ...*Dense) {
	x := uint64(seed)
	for _, m := range ms {
		for i := 0; i < m.Rows; i++ {
			row := m.Data[i*m.Stride : i*m.Stride+m.Cols]
			for j := range row {
				x += 0xa0761d6478bd642f
				hi, lo := bits.Mul64(x, x^0xe7037ed1a0b428db)
				row[j] = float64(int64((hi^lo)>>11))*0x1p-52 - 1
			}
		}
	}
}

// xxHash64's primes.
const xxP1, xxP2, xxP3, xxP4 uint64 = 0x9e3779b185ebca87, 0xc2b2ae3d27d4eb4f, 0x165667b19e3779f9, 0x85ebca77c2b2ae63

// xxRound is xxHash64's accumulator round.
func xxRound(acc, w uint64) uint64 { return bits.RotateLeft64(acc+w*xxP2, 31) * xxP1 }

// Digest returns a 64-bit digest of a matrix's values as 16 hex digits:
// row-major element k goes through xxHash64's round into lane k mod 4 of
// four accumulators (four multiply chains in flight, stride ignored), which
// are merged as in xxHash64, folded with the element count and avalanched.
// Products of equal (N, seed) operands get equal digests whatever their
// shape, runner or recovery path (DESIGN.md §6, §8).
func Digest(m *Dense) string {
	acc := [4]uint64{0x60ea27eeadc0b5d6, xxP2, 0, 0x61c8864e7a143579} // seed 0: P1+P2, P2, 0, −P1
	k := 0
	for i := 0; i < m.Rows; i++ {
		for _, v := range m.Data[i*m.Stride : i*m.Stride+m.Cols] {
			acc[k&3] = xxRound(acc[k&3], math.Float64bits(v))
			k++
		}
	}
	h := bits.RotateLeft64(acc[0], 1) + bits.RotateLeft64(acc[1], 7) +
		bits.RotateLeft64(acc[2], 12) + bits.RotateLeft64(acc[3], 18)
	for _, v := range acc {
		h = (h^xxRound(0, v))*xxP1 + xxP4
	}
	h += uint64(k)
	h = (h ^ h>>33) * xxP2
	h = (h ^ h>>29) * xxP3
	h ^= h >> 32
	var b [24]byte // 16 hex digits, then the 8 bytes they encode
	hex.Encode(b[:16], binary.BigEndian.AppendUint64(b[16:16], h))
	return string(b[:16])
}
