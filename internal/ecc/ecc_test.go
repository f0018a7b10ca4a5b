package ecc

import (
	"bytes"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

func codec(t *testing.T, page, sector int) *Codec {
	t.Helper()
	c, err := NewCodec(page, sector)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// refSyndrome is the bit-serial definition of the syndrome: the XOR of
// the 1-based positions of every set bit, and the parity of their count.
// sectorSyndrome must agree with it on every input.
func refSyndrome(sector []byte) (syndrome uint32, parity uint32) {
	for byteIdx, b := range sector {
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

// refEncode builds the parity block Encode must produce, from refSyndrome.
func refEncode(data []byte, sectorSize int) []byte {
	out := make([]byte, 0, 4*len(data)/sectorSize)
	for s := 0; s+sectorSize <= len(data); s += sectorSize {
		syn, par := refSyndrome(data[s : s+sectorSize])
		word := syn<<1 | par
		out = append(out, byte(word), byte(word>>8), byte(word>>16), byte(word>>24))
	}
	return out
}

// syndromePatterns returns named sectors of n bytes: all-zero, all-ones,
// one bit at every position (for n <= 64), random, and sparse.
func syndromePatterns(n int, rng *rand.Rand) map[string][]byte {
	p := map[string][]byte{
		"zero": make([]byte, n),
		"ones": bytes.Repeat([]byte{0xff}, n),
	}
	if n <= 64 {
		for bit := 0; bit < n*8; bit++ {
			b := make([]byte, n)
			b[bit/8] = 1 << (bit % 8)
			p[fmt.Sprintf("bit%d", bit)] = b
		}
	}
	for i := 0; i < 4; i++ {
		random := make([]byte, n)
		rng.Read(random)
		p[fmt.Sprintf("random%d", i)] = random
		sparse := make([]byte, n)
		for j := 0; j < 1+n/64; j++ {
			bit := rng.Intn(n * 8)
			sparse[bit/8] |= 1 << (bit % 8)
		}
		p[fmt.Sprintf("sparse%d", i)] = sparse
	}
	return p
}

func TestSyndromeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, n := range []int{1, 7, 8, 9, 32, 100, 512, 513, 8192} {
		c := codec(t, 2*n, n)
		for name, sector := range syndromePatterns(n, rng) {
			gotSyn, gotPar := sectorSyndrome(sector)
			wantSyn, wantPar := refSyndrome(sector)
			if gotSyn != wantSyn || gotPar != wantPar {
				t.Fatalf("size %d %s: syndrome (%d, %d), reference (%d, %d)",
					n, name, gotSyn, gotPar, wantSyn, wantPar)
			}
			// Two-sector page: the pattern, then its complement.
			page := append(append([]byte(nil), sector...), sector...)
			for i := n; i < 2*n; i++ {
				page[i] ^= 0xff
			}
			parity, err := c.Encode(page)
			if err != nil {
				t.Fatal(err)
			}
			if want := refEncode(page, n); !bytes.Equal(parity, want) {
				t.Fatalf("size %d %s: Encode % x, reference % x", n, name, parity, want)
			}
		}
	}
}

func TestCleanRoundTrip(t *testing.T) {
	c := codec(t, 8192, 512)
	data := make([]byte, 8192)
	rand.New(rand.NewSource(1)).Read(data)
	parity, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(parity) != c.ParityBytes() {
		t.Fatalf("parity block %d bytes", len(parity))
	}
	n, err := c.Decode(data, parity)
	if err != nil || n != 0 {
		t.Fatalf("clean decode: n=%d err=%v", n, err)
	}
}

func TestSingleErrorPerSectorCorrected(t *testing.T) {
	c := codec(t, 8192, 512)
	rng := rand.New(rand.NewSource(2))
	data := make([]byte, 8192)
	rng.Read(data)
	parity, _ := c.Encode(data)
	orig := append([]byte(nil), data...)

	// Flip exactly one bit in every sector.
	for s := 0; s < c.Sectors(); s++ {
		bit := rng.Intn(512 * 8)
		data[s*512+bit/8] ^= 1 << (bit % 8)
	}
	n, err := c.Decode(data, parity)
	if err != nil {
		t.Fatal(err)
	}
	if n != c.Sectors() {
		t.Fatalf("corrected %d bits, want %d", n, c.Sectors())
	}
	for i := range data {
		if data[i] != orig[i] {
			t.Fatalf("byte %d not restored", i)
		}
	}
}

func TestDoubleErrorDetected(t *testing.T) {
	c := codec(t, 1024, 512)
	data := make([]byte, 1024)
	rand.New(rand.NewSource(3)).Read(data)
	parity, _ := c.Encode(data)
	data[0] ^= 1
	data[100] ^= 2 // two errors in sector 0
	if _, err := c.Decode(data, parity); !errors.Is(err, ErrUncorrectable) {
		t.Fatalf("double error: err = %v, want ErrUncorrectable", err)
	}
}

func TestEveryBitPositionCorrectable(t *testing.T) {
	c := codec(t, 64, 64)
	base := make([]byte, 64)
	rand.New(rand.NewSource(4)).Read(base)
	parity, _ := c.Encode(base)
	for bit := 0; bit < 64*8; bit++ {
		data := append([]byte(nil), base...)
		data[bit/8] ^= 1 << (bit % 8)
		n, err := c.Decode(data, parity)
		if err != nil || n != 1 {
			t.Fatalf("bit %d: n=%d err=%v", bit, n, err)
		}
		if data[bit/8] != base[bit/8] {
			t.Fatalf("bit %d not restored", bit)
		}
	}
}

func TestSizeValidation(t *testing.T) {
	if _, err := NewCodec(8192, 600); err == nil {
		t.Fatal("non-dividing sector accepted")
	}
	if _, err := NewCodec(0, 512); err == nil {
		t.Fatal("zero page accepted")
	}
	// The largest position must fit the 31-bit syndrome field.
	if _, err := NewCodec(1<<28, 1<<28); err == nil {
		t.Fatal("sector of 2^31 bits accepted")
	}
	if _, err := NewCodec(1<<28-1, 1<<28-1); err != nil {
		t.Fatalf("sector just under 2^31 bits rejected: %v", err)
	}
	c := codec(t, 1024, 512)
	if _, err := c.Encode(make([]byte, 100)); err == nil {
		t.Fatal("short encode accepted")
	}
	if _, err := c.Decode(make([]byte, 1024), make([]byte, 3)); err == nil {
		t.Fatal("short parity accepted")
	}
}

// Property: one random flip per random sector always restores the page.
func TestSingleErrorProperty(t *testing.T) {
	c, _ := NewCodec(1024, 256)
	f := func(seed int64, bitRaw uint16) bool {
		data := make([]byte, 1024)
		rand.New(rand.NewSource(seed)).Read(data)
		parity, err := c.Encode(data)
		if err != nil {
			return false
		}
		orig := append([]byte(nil), data...)
		bit := int(bitRaw) % (1024 * 8)
		data[bit/8] ^= 1 << (bit % 8)
		n, err := c.Decode(data, parity)
		if err != nil || n != 1 {
			return false
		}
		for i := range data {
			if data[i] != orig[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncode8KB(b *testing.B) {
	c, _ := NewCodec(8192, 512)
	data := make([]byte, 8192)
	rand.New(rand.NewSource(5)).Read(data)
	b.SetBytes(8192)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Encode(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecode8KBClean(b *testing.B) {
	c, _ := NewCodec(8192, 512)
	data := make([]byte, 8192)
	rand.New(rand.NewSource(5)).Read(data)
	parity, _ := c.Encode(data)
	b.SetBytes(8192)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n, err := c.Decode(data, parity); err != nil || n != 0 {
			b.Fatalf("clean decode: n=%d err=%v", n, err)
		}
	}
}

func BenchmarkDecode8KBOneError(b *testing.B) {
	c, _ := NewCodec(8192, 512)
	data := make([]byte, 8192)
	rand.New(rand.NewSource(5)).Read(data)
	parity, _ := c.Encode(data)
	b.SetBytes(8192)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data[17] ^= 4
		if _, err := c.Decode(data, parity); err != nil {
			b.Fatal(err)
		}
	}
}
