package main

import "math/rand"

// deck deals values in shuffled rounds; each round holds every value as
// many times as its weight. A workload's mix then differs between seeds
// in order only, not in proportion, which keeps seed-to-seed spread in
// the figures down to the inputs that matter.
type deck struct {
	rng   *rand.Rand
	cards []int
	next  int
}

// newDeck deals value i weights[i] times per round.
func newDeck(rng *rand.Rand, weights ...int) *deck {
	d := &deck{rng: rng}
	for v, w := range weights {
		for ; w > 0; w-- {
			d.cards = append(d.cards, v)
		}
	}
	d.next = len(d.cards)
	return d
}

// uniformDeck deals 0..n-1 once per round.
func uniformDeck(rng *rand.Rand, n int) *deck {
	ws := make([]int, n)
	for i := range ws {
		ws[i] = 1
	}
	return newDeck(rng, ws...)
}

func (d *deck) draw() int {
	if d.next == len(d.cards) {
		d.rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
		d.next = 0
	}
	d.next++
	return d.cards[d.next-1]
}

func randomPages(rng *rand.Rand, n, size int) [][]byte {
	ps := make([][]byte, n)
	for i := range ps {
		ps[i] = make([]byte, size)
		rng.Read(ps[i])
	}
	return ps
}
