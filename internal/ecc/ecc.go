// Package ecc implements the error-correcting code of the simulated
// SSD's baseline read path. Real MLC-era controllers use BCH (or LDPC)
// over 512 B–1 KB sectors; this package provides an extended-Hamming
// SEC-DED codec over configurable sectors, which plays the same
// architectural role at a fraction of the implementation weight: the
// baseline read path corrects the raw bit errors injected by the
// reliability model, while ParaBit results bypass correction entirely —
// conventional ECC cannot validate a page that the latching circuit has
// combined from two sources (paper §4.4.3).
//
// Each sector of 2^k data bits is protected by k+1 parity bits laid out
// as an extended Hamming code: a k-bit syndrome locates any single bit
// error, and an overall parity bit distinguishes single (correctable)
// from double (detectable, uncorrectable) errors. Interleaving sectors
// across the page makes the page-level correction capability one bit per
// sector — 16 correctable bits per 8 KB page with 512 B sectors, in the
// same regime as the 40-bit/1 KB BCH of contemporaneous controllers for
// the error rates the reliability model produces.
//
// The syndrome is computed a 64-bit little-endian word at a time rather
// than bit by bit. Bit j of word w is byte 8w+j/8, bit j%8, so its
// 1-based position is 64w+j+1: that is (w<<6)|(j+1) for j < 63, while
// j == 63 carries into the next multiple of 64, (w+1)<<6, leaving its low
// six bits zero. The syndrome (the XOR of all set positions) therefore
// splits in two:
//
//   - Low six bits: only j+1 for j < 63 contributes. Bit k of the low
//     part is the parity of the set bits, over all words, whose j+1 has
//     bit k set. Parity survives XOR folding, so it is the popcount
//     parity of (XOR of all words) & M_k, where mask M_k holds bit j
//     (0 <= j < 63) exactly when bit k of j+1 is set.
//   - High bits: each word adds w<<6 once per set bit among bits 0–62
//     (so once if that popcount is odd), and (w+1)<<6 if bit 63 is set.
//
// The overall parity is the popcount parity of the XOR of all words. A
// sector tail shorter than a word falls back to the bit-serial loop.
// Both forms give identical parity bytes; the tests check the word form
// against the bit-serial reference.
package ecc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// ErrUncorrectable reports a sector whose syndrome indicates more errors
// than the code corrects.
var ErrUncorrectable = errors.New("ecc: uncorrectable sector")

// Codec protects pages of a fixed size.
type Codec struct {
	pageSize   int
	sectorSize int // bytes per protected sector
}

// NewCodec builds a codec for pages of pageSize bytes split into sectors
// of sectorSize bytes. pageSize must be a multiple of sectorSize.
func NewCodec(pageSize, sectorSize int) (*Codec, error) {
	if pageSize <= 0 || sectorSize <= 0 || pageSize%sectorSize != 0 {
		return nil, fmt.Errorf("ecc: page %d not divisible into %d-byte sectors", pageSize, sectorSize)
	}
	// Bit positions run 1..sectorSize*8 and must fit the 31-bit syndrome
	// field of the stored parity word (syndrome<<1 | parity).
	if int64(sectorSize)*8 > maxSyndrome {
		return nil, fmt.Errorf("ecc: %d-byte sectors exceed the %d-bit syndrome field", sectorSize, syndromeBits)
	}
	return &Codec{pageSize: pageSize, sectorSize: sectorSize}, nil
}

// Sectors returns sectors per page.
func (c *Codec) Sectors() int { return c.pageSize / c.sectorSize }

// ParityBytes returns the out-of-band bytes per page: 4 per sector
// (enough for the syndrome of sectors below 2^31 bits plus the overall
// parity, byte-aligned for simple storage).
func (c *Codec) ParityBytes() int { return 4 * c.Sectors() }

// syndromeBits is the width of the syndrome in the stored parity word;
// maxSyndrome is the largest bit position it can name.
const (
	syndromeBits = 31
	maxSyndrome  = 1<<syndromeBits - 1
)

// lowMasks[k] holds bit j (0 <= j < 63) of a word exactly when bit k of
// the in-word position j+1 is set; bit 63 carries to the next word and is
// in no mask.
var lowMasks = func() (m [6]uint64) {
	for j := 0; j < 63; j++ {
		for k := range m {
			if (j+1)>>k&1 != 0 {
				m[k] |= 1 << j
			}
		}
	}
	return m
}()

// sectorSyndrome computes the Hamming syndrome and overall parity of a
// sector: syndrome is the XOR of the (1-based) positions of set bits. It
// works a word at a time; the package comment gives the derivation.
func sectorSyndrome(sector []byte) (syndrome uint32, parity uint32) {
	var fold, high, base uint64 // base is w<<6 for the current word w
	rest := sector
	for len(rest) >= 8 {
		v := binary.LittleEndian.Uint64(rest)
		rest = rest[8:]
		fold ^= v
		// Add w<<6 if bits 0–62 hold an odd count, then (w+1)<<6 if bit
		// 63 is set; both selected without branches.
		top := v >> 63
		high ^= base & -((uint64(bits.OnesCount64(v)) ^ top) & 1)
		base += 64
		high ^= base & -top
	}
	var low uint64
	for k, m := range lowMasks {
		low |= uint64(bits.OnesCount64(fold&m)&1) << k
	}
	syndrome = uint32(high | low)
	parity = uint32(bits.OnesCount64(fold) & 1)
	for byteIdx := len(sector) - len(rest); byteIdx < len(sector); byteIdx++ {
		b := sector[byteIdx]
		for b != 0 {
			bit := bits.TrailingZeros8(b)
			b &= b - 1
			pos := uint32(byteIdx*8+bit) + 1
			syndrome ^= pos
			parity ^= 1
		}
	}
	return syndrome, parity
}

// Encode computes the page's parity block. data must be one page.
func (c *Codec) Encode(data []byte) ([]byte, error) {
	if len(data) != c.pageSize {
		return nil, fmt.Errorf("ecc: encode of %d bytes, page is %d", len(data), c.pageSize)
	}
	out := make([]byte, c.ParityBytes())
	for s := 0; s < c.Sectors(); s++ {
		sector := data[s*c.sectorSize : (s+1)*c.sectorSize]
		syn, par := sectorSyndrome(sector)
		word := syn<<1 | par
		out[s*4] = byte(word)
		out[s*4+1] = byte(word >> 8)
		out[s*4+2] = byte(word >> 16)
		out[s*4+3] = byte(word >> 24)
	}
	return out, nil
}

// Decode corrects data in place against the stored parity. It returns
// the number of bits corrected, or ErrUncorrectable if any sector holds
// more errors than the code handles (data is left partially corrected in
// that case, as real hardware would report).
func (c *Codec) Decode(data, parity []byte) (int, error) {
	if len(data) != c.pageSize {
		return 0, fmt.Errorf("ecc: decode of %d bytes, page is %d", len(data), c.pageSize)
	}
	if len(parity) != c.ParityBytes() {
		return 0, fmt.Errorf("ecc: parity block is %d bytes, want %d", len(parity), c.ParityBytes())
	}
	corrected := 0
	for s := 0; s < c.Sectors(); s++ {
		sector := data[s*c.sectorSize : (s+1)*c.sectorSize]
		stored := uint32(parity[s*4]) | uint32(parity[s*4+1])<<8 |
			uint32(parity[s*4+2])<<16 | uint32(parity[s*4+3])<<24
		storedSyn, storedPar := stored>>1, stored&1
		syn, par := sectorSyndrome(sector)
		dSyn := syn ^ storedSyn
		dPar := par ^ storedPar
		switch {
		case dSyn == 0 && dPar == 0:
			// Clean sector.
		case dPar == 1:
			// Odd number of flips: a single error at position dSyn.
			if dSyn == 0 || dSyn > uint32(c.sectorSize*8) {
				return corrected, fmt.Errorf("%w: sector %d syndrome %d", ErrUncorrectable, s, dSyn)
			}
			pos := dSyn - 1
			sector[pos/8] ^= 1 << (pos % 8)
			corrected++
		default:
			// Even flip count with nonzero syndrome: >=2 errors.
			return corrected, fmt.Errorf("%w: sector %d (double error)", ErrUncorrectable, s)
		}
	}
	return corrected, nil
}
