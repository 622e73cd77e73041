package main

import "testing"

func feed(seqs ...uint64) *orderChecker {
	c := newOrderChecker()
	for i, s := range seqs {
		c.observe(uint64(i+1), s)
	}
	return c
}

func TestOrderCheckerCleanStream(t *testing.T) {
	c := feed(1, 2, 3, 4, 5)
	if c.violations() != 0 || c.seen() != 5 {
		t.Fatalf("clean stream: %d violations, seen %d", c.violations(), c.seen())
	}
}

func TestOrderCheckerCatchesGap(t *testing.T) {
	c := feed(1, 2, 4, 5)
	if c.gaps != 1 || c.duplicates != 0 || c.reorders != 0 {
		t.Fatalf("gap: %+v", c)
	}
}

func TestOrderCheckerCatchesDuplicate(t *testing.T) {
	c := feed(1, 2, 2, 3)
	if c.duplicates != 1 || c.gaps != 0 || c.reorders != 0 {
		t.Fatalf("duplicate: %+v", c)
	}
}

func TestOrderCheckerCatchesSwap(t *testing.T) {
	c := feed(1, 3, 2, 4)
	if c.reorders != 1 || c.duplicates != 0 {
		t.Fatalf("swap: %+v", c)
	}
	if c.seen() != 4 {
		t.Fatalf("swap: seen %d, want 4", c.seen())
	}
}

func TestOrderCheckerCatchesOffsetRegression(t *testing.T) {
	c := newOrderChecker()
	c.observe(10, 1)
	c.observe(10, 2)
	if c.offsetRegressions != 1 {
		t.Fatalf("offset regression: %+v", c)
	}
}

func TestReceiptChecker(t *testing.T) {
	var c receiptChecker
	for _, seq := range []uint64{3, 5, 5, 4, 9} {
		c.observe(seq)
	}
	if c.regressions != 2 {
		t.Fatalf("regressions = %d, want 2", c.regressions)
	}
}
