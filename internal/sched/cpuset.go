package sched

import (
	"fmt"
	"math/bits"
	"strings"

	"repro/internal/topology"
	"repro/internal/trace"
)

// CPUSet is a bitset over logical CPUs, used for thread affinity masks
// (tasksets, §3.2) and scheduling-domain spans and groups.
type CPUSet struct {
	bits [2]uint64 // 128 CPUs is plenty: the paper's machine has 64
}

// NewCPUSet returns a set containing the given cores.
func NewCPUSet(cores ...topology.CoreID) CPUSet {
	var s CPUSet
	for _, c := range cores {
		s.Set(c)
	}
	return s
}

// FullCPUSet returns a set containing cores [0, n).
func FullCPUSet(n int) CPUSet {
	var s CPUSet
	for c := 0; c < n; c++ {
		s.Set(topology.CoreID(c))
	}
	return s
}

// Set adds core c.
func (s *CPUSet) Set(c topology.CoreID) { s.bits[c>>6] |= 1 << (uint(c) & 63) }

// Clear removes core c.
func (s *CPUSet) Clear(c topology.CoreID) { s.bits[c>>6] &^= 1 << (uint(c) & 63) }

// Has reports whether core c is in the set.
func (s CPUSet) Has(c topology.CoreID) bool { return s.bits[c>>6]&(1<<(uint(c)&63)) != 0 }

// Count returns the number of cores in the set.
func (s CPUSet) Count() int { return bits.OnesCount64(s.bits[0]) + bits.OnesCount64(s.bits[1]) }

// Empty reports whether the set has no cores.
func (s CPUSet) Empty() bool { return s.bits[0] == 0 && s.bits[1] == 0 }

// And returns the intersection of s and o.
func (s CPUSet) And(o CPUSet) CPUSet {
	return CPUSet{[2]uint64{s.bits[0] & o.bits[0], s.bits[1] & o.bits[1]}}
}

// Or returns the union of s and o.
func (s CPUSet) Or(o CPUSet) CPUSet {
	return CPUSet{[2]uint64{s.bits[0] | o.bits[0], s.bits[1] | o.bits[1]}}
}

// Equal reports whether the two sets contain the same cores.
func (s CPUSet) Equal(o CPUSet) bool { return s.bits == o.bits }

// First returns the lowest-numbered core in the set, or -1 when empty.
// "One core of each domain is responsible for balancing the load... the
// first idle core... or the first core of the scheduling domain" (§2.2.1) —
// "first" is this ordering.
func (s CPUSet) First() topology.CoreID {
	if s.bits[0] != 0 {
		return topology.CoreID(bits.TrailingZeros64(s.bits[0]))
	}
	if s.bits[1] != 0 {
		return topology.CoreID(64 + bits.TrailingZeros64(s.bits[1]))
	}
	return -1
}

// ForEach visits cores in ascending order.
func (s CPUSet) ForEach(fn func(c topology.CoreID)) {
	for w := 0; w < 2; w++ {
		b := s.bits[w]
		for b != 0 {
			i := bits.TrailingZeros64(b)
			fn(topology.CoreID(w*64 + i))
			b &= b - 1
		}
	}
}

// Cores returns the members in ascending order.
func (s CPUSet) Cores() []topology.CoreID {
	return s.AppendCores(make([]topology.CoreID, 0, s.Count()))
}

// AppendCores appends the members to dst in ascending order and returns
// the extended slice: a scan that refills one slice, AppendCores(buf[:0]),
// allocates nothing once the slice has room for every core.
func (s CPUSet) AppendCores(dst []topology.CoreID) []topology.CoreID {
	for w := 0; w < 2; w++ {
		b := s.bits[w]
		for b != 0 {
			dst = append(dst, topology.CoreID(w*64+bits.TrailingZeros64(b)))
			b &= b - 1
		}
	}
	return dst
}

// TraceMask converts the set to a trace.Mask for considered-cores events.
func (s CPUSet) TraceMask() trace.Mask { return trace.Mask{s.bits[0], s.bits[1]} }

// String renders the set as a compact range list, e.g. "{0-7,16}".
func (s CPUSet) String() string {
	cores := s.Cores()
	if len(cores) == 0 {
		return "{}"
	}
	var parts []string
	start, prev := cores[0], cores[0]
	flush := func() {
		if start == prev {
			parts = append(parts, fmt.Sprintf("%d", start))
		} else {
			parts = append(parts, fmt.Sprintf("%d-%d", start, prev))
		}
	}
	for _, c := range cores[1:] {
		if c == prev+1 {
			prev = c
			continue
		}
		flush()
		start, prev = c, c
	}
	flush()
	return "{" + strings.Join(parts, ",") + "}"
}
