package bitvec

import (
	"math/rand"
	"testing"

	"dualsim/internal/proptest"
)

func TestCompressedRoundTrip(t *testing.T) {
	cases := []*Vector{
		New(0),
		New(1),
		FromBits(1, 0),
		New(64),
		NewFull(64),
		NewFull(65),
		FromBits(1000, 0, 512, 999),
		NewFull(1000),
	}
	for i, v := range cases {
		c := Compress(v)
		got := c.Decompress()
		if !got.Equal(v) {
			t.Fatalf("case %d: roundtrip mismatch: %v vs %v", i, got, v)
		}
		if c.Len() != v.Len() {
			t.Fatalf("case %d: Len mismatch", i)
		}
	}
}

func TestCompressedLongGap(t *testing.T) {
	// A single set bit at the end of a long vector must compress to a
	// handful of words — this is the gap-length win the paper relies on.
	v := New(1 << 20)
	v.Set(1<<20 - 1)
	c := Compress(v)
	if c.SizeWords() > 4 {
		t.Fatalf("long-gap vector uses %d words", c.SizeWords())
	}
	if got := c.Decompress(); !got.Equal(v) {
		t.Fatal("roundtrip mismatch")
	}
}

func TestCompressedCount(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		n := rr.Intn(700) + 1
		v := randomVector(rr, n)
		return Compress(v).Count() == v.Count()
	}
	proptest.Check(t, f, 300, regressionSeeds)
}

func TestCompressedIsEmpty(t *testing.T) {
	if !Compress(New(500)).IsEmpty() {
		t.Fatal("empty vector compresses non-empty")
	}
	if Compress(FromBits(500, 499)).IsEmpty() {
		t.Fatal("non-empty vector compresses empty")
	}
}

func TestCompressedOrInto(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		n := rr.Intn(600) + 1
		a := randomVector(rr, n)
		b := randomVector(rr, n)
		want := a.Clone()
		want.Or(b)
		got := a.Clone()
		Compress(b).OrInto(got)
		return got.Equal(want)
	}
	proptest.Check(t, f, 300, regressionSeeds)
}

func TestCompressedIntersects(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		n := rr.Intn(600) + 1
		a := randomVector(rr, n)
		b := randomVector(rr, n)
		return Compress(a).Intersects(b) == a.Intersects(b)
	}
	proptest.Check(t, f, 300, regressionSeeds)
}

func TestCompressedForEach(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		n := rr.Intn(600) + 1
		v := randomVector(rr, n)
		var got []int
		Compress(v).ForEach(func(i int) bool { got = append(got, i); return true })
		want := v.Bits()
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	proptest.Check(t, f, 300, regressionSeeds)
}

func TestCompressedForEachEarlyStop(t *testing.T) {
	v := NewFull(300)
	seen := 0
	Compress(v).ForEach(func(i int) bool { seen++; return seen < 5 })
	if seen != 5 {
		t.Fatalf("visited %d bits, want 5", seen)
	}
}

func TestCompressedSavesSpaceOnSparse(t *testing.T) {
	v := New(100_000)
	for i := 0; i < 10; i++ {
		v.Set(i * 9999)
	}
	c := Compress(v)
	dense := len(v.words)
	if c.SizeWords() >= dense/10 {
		t.Fatalf("compression ineffective: %d words vs %d dense", c.SizeWords(), dense)
	}
}
