package main

// orderChecker verifies one subscriber stream against what the publisher
// sent: offsets strictly increasing, publisher sequence numbers arriving
// 1, 2, 3, … with nothing missing, repeated or out of place. Every
// violation is counted; the run fails and fail_ratio rises by each.
type orderChecker struct {
	next    uint64 // publisher sequence expected next
	lastOff uint64

	gaps, duplicates, reorders, offsetRegressions uint64

	// skipped holds sequence numbers a gap jumped over, so a late arrival
	// is told apart from a repeat: late is a reorder, repeat a duplicate.
	skipped map[uint64]struct{}
}

// maxSkipped bounds the skipped set; a stream broken beyond it has already
// failed the run and further classification adds nothing.
const maxSkipped = 1 << 16

func newOrderChecker() *orderChecker {
	return &orderChecker{next: 1, skipped: make(map[uint64]struct{})}
}

// observe folds one delivered message: its offset in the total order and
// the publisher sequence number from its payload header.
func (c *orderChecker) observe(off, seq uint64) {
	if off <= c.lastOff {
		c.offsetRegressions++
	} else {
		c.lastOff = off
	}
	switch {
	case seq == c.next:
		c.next++
	case seq > c.next:
		c.gaps++
		for s := c.next; s < seq && len(c.skipped) < maxSkipped; s++ {
			c.skipped[s] = struct{}{}
		}
		c.next = seq + 1
	default:
		if _, late := c.skipped[seq]; late {
			delete(c.skipped, seq)
			c.reorders++
		} else {
			c.duplicates++
		}
	}
}

// seen is the highest publisher sequence number observed in order.
func (c *orderChecker) seen() uint64 { return c.next - 1 }

func (c *orderChecker) violations() uint64 {
	return c.gaps + c.duplicates + c.reorders + c.offsetRegressions
}

// merge adds another checker's violation counts (one replay pass each).
func (c *orderChecker) merge(o *orderChecker) {
	c.gaps += o.gaps
	c.duplicates += o.duplicates
	c.reorders += o.reorders
	c.offsetRegressions += o.offsetRegressions
}

// receiptChecker verifies the publisher's side: commit offsets strictly
// increasing in publish order (per-publisher FIFO in the total order).
type receiptChecker struct {
	lastSeq     uint64
	regressions uint64
}

func (c *receiptChecker) observe(commitSeq uint64) {
	if commitSeq <= c.lastSeq {
		c.regressions++
		return
	}
	c.lastSeq = commitSeq
}
