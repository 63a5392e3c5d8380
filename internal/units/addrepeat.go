package units

import "math"

// AddRepeat returns x after k rounds of `x += inc`, bit for bit, in
// O(binades crossed) rather than O(k). It is what lets a fast-forward
// over k identical quanta keep the stepped engine's accumulated rounding
// on the clock and the energy meters without performing k additions.
//
// Why the bits are computable. Take x and inc positive, finite and
// normal, u the ulp of x's binade [2^e, 2^(e+1)), and write x = m·u with
// 2^52 ≤ m < 2^53 and inc = q·u + r with 0 ≤ r < u. While the exact sum
// stays below 2^(e+1) it is rounded onto the same grid of multiples of
// u, so one add moves m by q when r < u/2, by q+1 when r > u/2 — and
// when r is exactly u/2 (round-half-even) by whichever of the two makes
// the new m even. The first add out of x may therefore take either step,
// but it leaves m even, and from an even m the tie always resolves the
// same way (q if q is even, q+1 if odd), which again leaves m even. So
// after one real add the per-step increment d, counted in ulps, is a
// constant for the rest of the binade: two real adds y1 = x+inc,
// y2 = y1+inc measure it as bits(y2) − bits(y1), and n further adds land
// on bits(y2) + n·d so long as that stays at or below the binade's last
// value — every skipped sum is then below 2^(e+1) and was rounded on
// the grid d was measured on. The add that crosses into the next binade
// is always a real one.
//
// Everything the argument does not cover — zero, negative, subnormal or
// non-finite operands, fewer than four rounds left — performs the real
// addition, one round at a time; an add that returns its own input bits
// is a fixed point (zero inc, inc under half an ulp, ±Inf, NaN) and ends
// the walk early, since every later round would return them too.
func AddRepeat(x, inc float64, k int) float64 {
	const fracMask = 1<<52 - 1
	incNormal := inc >= 0x1p-1022 && inc <= math.MaxFloat64
	for k > 0 {
		y1 := x + inc
		b0, b1 := math.Float64bits(x), math.Float64bits(y1)
		if b1 == b0 {
			return x
		}
		if k < 4 || !incNormal || !(x >= 0x1p-1022) {
			x, k = y1, k-1
			continue
		}
		y2 := y1 + inc
		b2 := math.Float64bits(y2)
		x, k = y2, k-2
		if b1>>52 != b0>>52 || b2>>52 != b0>>52 {
			continue // left x's binade (or overflowed to +Inf): measure again from y2
		}
		d := b2 - b1
		if d == 0 {
			return y2
		}
		n := (fracMask - b2&fracMask) / d
		if uint64(k) < n {
			n = uint64(k)
		}
		x, k = math.Float64frombits(b2+n*d), k-int(n)
	}
	return x
}
