package ecc

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzECCRoundTrip drives the SEC-DED codec through its contract on
// arbitrary pages and corruption patterns: one flipped bit per sector is
// always corrected back to the original data, two flipped bits in a
// sector are always reported as ErrUncorrectable, and a nil error never
// coexists with data that differs from what was encoded (no silent
// corruption). Flip patterns are capped at two bits per sector because a
// SEC-DED code makes no promise about three or more — they may alias to
// a correctable syndrome.
func FuzzECCRoundTrip(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{0xa5}, []byte{0x00})
	f.Add(bytes.Repeat([]byte{0xff, 0x00}, 64), []byte{3, 250})
	f.Add(bytes.Repeat([]byte{0x5a}, 128), []byte{1, 2, 3, 4, 5, 6})

	const pageSize, sectorSize = 128, 32
	codec, err := NewCodec(pageSize, sectorSize)
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, seed, flips []byte) {
		// Normalize the fuzzed payload to one full page.
		data := make([]byte, pageSize)
		copy(data, seed)
		original := append([]byte(nil), data...)

		parity, err := codec.Encode(data)
		if err != nil {
			t.Fatalf("Encode: %v", err)
		}
		if len(parity) != codec.ParityBytes() {
			t.Fatalf("Encode returned %d parity bytes, want %d", len(parity), codec.ParityBytes())
		}

		// Derive flip positions from the fuzz input, keeping at most two
		// per sector so every pattern stays inside the SEC-DED contract.
		if len(flips) > 16 {
			flips = flips[:16]
		}
		perSector := make([]int, codec.Sectors())
		seen := make(map[int]bool)
		maxInSector := 0
		for i, b := range flips {
			bit := (int(b)<<4 | i) % (pageSize * 8)
			sector := bit / (sectorSize * 8)
			if seen[bit] || perSector[sector] >= 2 {
				continue
			}
			seen[bit] = true
			perSector[sector]++
			if perSector[sector] > maxInSector {
				maxInSector = perSector[sector]
			}
			data[bit/8] ^= 1 << (bit % 8)
		}

		corrected, err := codec.Decode(data, parity)
		switch {
		case maxInSector <= 1:
			if err != nil {
				t.Fatalf("Decode with %d single-bit sector errors: %v", len(seen), err)
			}
			if corrected != len(seen) {
				t.Fatalf("Decode corrected %d bits, want %d", corrected, len(seen))
			}
			if !bytes.Equal(data, original) {
				t.Fatalf("Decode reported success but data differs from the original")
			}
		default: // some sector holds exactly two flips
			if !errors.Is(err, ErrUncorrectable) {
				t.Fatalf("Decode with a double-bit sector error returned %v, want ErrUncorrectable", err)
			}
		}

		// The global guard, independent of the case analysis above: a nil
		// error means the caller may trust the page.
		if err == nil && !bytes.Equal(data, original) {
			t.Fatal("silent corruption: Decode returned nil error on wrong data")
		}
	})
}

// FuzzSyndrome checks the word-parallel syndrome against the bit-serial
// reference on arbitrary bytes cut into sectors of a fuzzed size, so
// word-boundary tails, bit 63 carries and multi-word sectors all occur,
// and checks Encode's parity block over the whole sectors byte for byte.
func FuzzSyndrome(f *testing.F) {
	f.Add(uint16(12), append(bytes.Repeat([]byte{0xff}, 11), 0x01))
	f.Add(uint16(16), []byte{7: 0x80, 15: 0x80})
	f.Add(uint16(1), []byte{0x01, 0x80})

	f.Fuzz(func(t *testing.T, size uint16, data []byte) {
		if len(data) == 0 {
			return
		}
		sectorSize := int(size)
		if sectorSize == 0 || sectorSize > len(data) {
			sectorSize = len(data)
		}
		for s := 0; s < len(data); s += sectorSize {
			sector := data[s:min(s+sectorSize, len(data))]
			gotSyn, gotPar := sectorSyndrome(sector)
			wantSyn, wantPar := refSyndrome(sector)
			if gotSyn != wantSyn || gotPar != wantPar {
				t.Fatalf("sector at %d (%d bytes): syndrome (%d, %d), reference (%d, %d)",
					s, len(sector), gotSyn, gotPar, wantSyn, wantPar)
			}
		}
		page := data[:len(data)/sectorSize*sectorSize]
		codec, err := NewCodec(len(page), sectorSize)
		if err != nil {
			t.Fatal(err)
		}
		parity, err := codec.Encode(page)
		if err != nil {
			t.Fatal(err)
		}
		if want := refEncode(page, sectorSize); !bytes.Equal(parity, want) {
			t.Fatalf("Encode % x, reference % x", parity, want)
		}
	})
}
