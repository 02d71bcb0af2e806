package main

import (
	"math"
	"time"
)

// schedule is the serve workload's open-loop arrival plan: count batches
// due at a fixed rate from the phase start, batch j at j/rate seconds,
// dealt round-robin over the tenants. Each tenant is pinned to one
// sender goroutine, so a tenant's batches are posted in due order and
// its accepted order is its due order.
type schedule struct {
	rate    float64 // batches per second
	count   int
	tenants int
	senders int
}

func newSchedule(rate float64, d time.Duration, tenants, senders int) schedule {
	if senders > tenants {
		senders = tenants
	}
	return schedule{rate: rate, count: int(math.Round(rate * d.Seconds())), tenants: tenants, senders: senders}
}

// due is batch j's offset from the phase start.
func (s schedule) due(j int) time.Duration {
	return time.Duration(float64(j) * float64(time.Second) / s.rate)
}

func (s schedule) tenant(j int) int { return j % s.tenants }

func (s schedule) sender(j int) int { return s.tenant(j) % s.senders }

// senderBatches lists sender k's batches in due order.
func (s schedule) senderBatches(k int) []int {
	var out []int
	for j := 0; j < s.count; j++ {
		if s.sender(j) == k {
			out = append(out, j)
		}
	}
	return out
}
