package geom

import (
	"math"
	"math/big"
)

// Orientation returns the sign of the signed area of triangle (a, b, c):
// +1 if c lies to the left of the directed line a→b (counter-clockwise),
// −1 if to the right (clockwise), 0 if the three points are collinear.
//
// A floating-point filter handles the overwhelmingly common certain cases;
// when the computed determinant is smaller than its forward error bound the
// predicate is re-evaluated exactly with math/big rationals, so the result
// is always the sign of the exact determinant.
func Orientation(a, b, c Point) int {
	det, bound := OrientationDet(a, b, c)
	if det > bound {
		return 1
	}
	if det < -bound {
		return -1
	}
	// Coincident points make the determinant exactly zero; the check is
	// far cheaper than the big-float fallback and catches the common case
	// of a basis point tested against its own line.
	if a == b || a == c || b == c {
		return 0
	}
	return orientationExact(a, b, c)
}

// OrientationDet is Orientation's static float filter (Shewchuk): the
// determinant, positive when c is left of a→b, and the bound on its
// forward error. Whenever |det| > bound, sign(det) is the exact
// orientation; otherwise only Orientation decides. It is small enough to
// inline, so a hot loop can filter without a call and call Orientation
// only when the filter cannot decide.
func OrientationDet(a, b, c Point) (det, bound float64) {
	detLeft := (a.X - c.X) * (b.Y - c.Y)
	detRight := (a.Y - c.Y) * (b.X - c.X)
	const errBound = 3.3306690738754716e-16 // (3 + 16·eps)·eps, eps = 2^-53
	return detLeft - detRight, errBound * (math.Abs(detLeft) + math.Abs(detRight))
}

func orientationExact(a, b, c Point) int {
	ax, ay := big.NewFloat(a.X), big.NewFloat(a.Y)
	bx, by := big.NewFloat(b.X), big.NewFloat(b.Y)
	cx, cy := big.NewFloat(c.X), big.NewFloat(c.Y)
	// Set precision high enough that every product and difference of
	// float64 inputs is exact: 53-bit inputs need ≤ 110 bits per product
	// and a few more for the additions; 256 is comfortably exact here.
	for _, f := range []*big.Float{ax, ay, bx, by, cx, cy} {
		f.SetPrec(256)
	}
	t1 := new(big.Float).SetPrec(256).Sub(ax, cx)
	t2 := new(big.Float).SetPrec(256).Sub(by, cy)
	t3 := new(big.Float).SetPrec(256).Sub(ay, cy)
	t4 := new(big.Float).SetPrec(256).Sub(bx, cx)
	l := new(big.Float).SetPrec(256).Mul(t1, t2)
	r := new(big.Float).SetPrec(256).Mul(t3, t4)
	return l.Cmp(r)
}

// Orientation3 returns the sign of the determinant
//
//	| b−a |
//	| c−a |
//	| d−a |
//
// i.e. +1 if d lies on the positive side of the plane through (a, b, c)
// oriented by the right-hand rule, −1 on the negative side, 0 if coplanar.
func Orientation3(a, b, c, d Point3) int {
	det, bound := Orientation3Det(a, b, c, d)
	if det > bound {
		return 1
	}
	if det < -bound {
		return -1
	}
	if a == b || a == c || a == d || b == c || b == d || c == d {
		return 0
	}
	return orientation3Exact(a, b, c, d)
}

// Orientation3Det is Orientation3's static float filter, as
// OrientationDet is Orientation's: the determinant det(b−a, c−a, d−a)
// and the bound on its forward error; sign(det) is exact whenever
// |det| > bound.
func Orientation3Det(a, b, c, d Point3) (det, bound float64) {
	adx, ady, adz := a.X-d.X, a.Y-d.Y, a.Z-d.Z
	bdx, bdy, bdz := b.X-d.X, b.Y-d.Y, b.Z-d.Z
	cdx, cdy, cdz := c.X-d.X, c.Y-d.Y, c.Z-d.Z

	bdxcdy := bdx * cdy
	cdxbdy := cdx * bdy
	cdxady := cdx * ady
	adxcdy := adx * cdy
	adxbdy := adx * bdy
	bdxady := bdx * ady

	// The Shewchuk-style expression is det(a−d, b−d, c−d), the negative
	// of the documented det(b−a, c−a, d−a).
	det = -(adz*(bdxcdy-cdxbdy) + bdz*(cdxady-adxcdy) + cdz*(adxbdy-bdxady))
	permanent := (math.Abs(bdxcdy)+math.Abs(cdxbdy))*math.Abs(adz) +
		(math.Abs(cdxady)+math.Abs(adxcdy))*math.Abs(bdz) +
		(math.Abs(adxbdy)+math.Abs(bdxady))*math.Abs(cdz)
	const errBound = 7.771561172376103e-16 // (7 + 56·eps)·eps
	return det, errBound * permanent
}

func orientation3Exact(a, b, c, d Point3) int {
	// Rational arithmetic is exact for float64 inputs.
	rat := func(x float64) *big.Rat { return new(big.Rat).SetFloat64(x) }
	sub := func(x, y *big.Rat) *big.Rat { return new(big.Rat).Sub(x, y) }
	mul := func(x, y *big.Rat) *big.Rat { return new(big.Rat).Mul(x, y) }

	adx, ady, adz := sub(rat(a.X), rat(d.X)), sub(rat(a.Y), rat(d.Y)), sub(rat(a.Z), rat(d.Z))
	bdx, bdy, bdz := sub(rat(b.X), rat(d.X)), sub(rat(b.Y), rat(d.Y)), sub(rat(b.Z), rat(d.Z))
	cdx, cdy, cdz := sub(rat(c.X), rat(d.X)), sub(rat(c.Y), rat(d.Y)), sub(rat(c.Z), rat(d.Z))

	m1 := sub(mul(bdx, cdy), mul(cdx, bdy))
	m2 := sub(mul(cdx, ady), mul(adx, cdy))
	m3 := sub(mul(adx, bdy), mul(bdx, ady))

	det := new(big.Rat).Add(mul(adz, m1), mul(bdz, m2))
	det.Add(det, mul(cdz, m3))
	// Same sign flip as the filtered path: the expression is
	// det(a−d, b−d, c−d) = −det(b−a, c−a, d−a).
	return -det.Sign()
}

// AboveLine reports whether point p lies strictly above the line through u
// and w (u.X must differ from w.X). Equivalent to the exact comparison
// p.Y > l.Eval(p.X) but evaluated robustly via the orientation predicate.
func AboveLine(p, u, w Point) bool {
	if u.X < w.X {
		return Orientation(u, w, p) > 0
	}
	return Orientation(w, u, p) > 0
}
