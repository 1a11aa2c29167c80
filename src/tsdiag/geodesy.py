"""Ellipsoidal geodesic distances and probe odometry along a road link.

The inverse problem (shortest-path distance and end azimuths between two
latitude/longitude points) is solved on an auxiliary sphere with sixth-order
series expansions in the third flattening and a bracketed Newton iteration,
so it converges for every point pair, including near-antipodal ones, at
full double precision.  Azimuths are degrees clockwise from north.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import ValidationError

__all__ = [
    "Ellipsoid",
    "GeoPoint",
    "InverseSolution",
    "WGS84",
    "geodesic_inverse",
    "probe_distances",
]

_WGS84_A = 6378137.0
_WGS84_F = 1.0 / 298.257223563


@dataclass(frozen=True)
class Ellipsoid:
    """Reference ellipsoid: equatorial radius [m] and flattening."""

    semi_major_axis_m: float = _WGS84_A
    flattening: float = _WGS84_F

    def __post_init__(self):
        if not (math.isfinite(self.semi_major_axis_m) and self.semi_major_axis_m > 0):
            raise ValidationError(f"semi-major axis must be positive, got {self.semi_major_axis_m!r}")
        if not (math.isfinite(self.flattening) and 0.0 <= self.flattening < 1.0):
            raise ValidationError(f"flattening must be in [0, 1), got {self.flattening!r}")


WGS84 = Ellipsoid()


@dataclass(frozen=True)
class GeoPoint:
    """A position on the ellipsoid, degrees; longitude normalized to (-180, 180]."""

    latitude_deg: float
    longitude_deg: float

    def __post_init__(self):
        lat = float(self.latitude_deg)
        lon = float(self.longitude_deg)
        if not (math.isfinite(lat) and -90.0 <= lat <= 90.0):
            raise ValidationError(f"latitude {self.latitude_deg!r} outside [-90, 90]")
        if not math.isfinite(lon):
            raise ValidationError(f"longitude {self.longitude_deg!r} is not finite")
        lon = math.remainder(lon, 360.0)
        if lon <= -180.0:
            lon = 180.0
        object.__setattr__(self, "latitude_deg", lat)
        object.__setattr__(self, "longitude_deg", lon)


@dataclass(frozen=True)
class InverseSolution:
    distance_m: float
    azimuth1_deg: float
    azimuth2_deg: float


# ---------------------------------------------------------------------------
# angle helpers (exact quadrant handling, compensated sums)

_EPS = sys.float_info.epsilon
_TINY = math.sqrt(sys.float_info.min)
_TOL0 = _EPS
_TOL1 = 200.0 * _TOL0
_TOL2 = math.sqrt(_EPS)
_TOLB = _TOL0 * _TOL2
_XTHRESH = 1000.0 * _TOL2
_MAXIT1 = 20
_MAXIT2 = _MAXIT1 + sys.float_info.mant_dig + 10


def _sum_err(u, v):
    # error-compensated sum: s = fl(u + v), t = exact residual
    s = u + v
    up = s - v
    vpp = s - up
    up -= u
    vpp -= v
    return s, -(up + vpp)


def _ang_normalize(x):
    x = math.remainder(x, 360.0)
    return 180.0 if x == -180.0 else x


def _ang_diff(x, y):
    # y - x reduced to [-180, 180], plus the rounding residual
    d, t = _sum_err(_ang_normalize(-x), _ang_normalize(y))
    d = _ang_normalize(d)
    if d == 180.0 and t > 0.0:
        d = -180.0
    return _sum_err(d, t)


def _ang_round(x):
    # flush values within ~1/2^57 deg of zero so near-singular configurations
    # (same meridian, equator) are detected exactly
    z = 1.0 / 16.0
    y = abs(x)
    if y < z:
        y = z - (z - y)
    return 0.0 if x == 0.0 else (-y if x < 0.0 else y)


def _sincosd(x):
    r = math.fmod(x, 360.0)
    q = int(round(r / 90.0))
    r = math.radians(r - 90.0 * q)
    s, c = math.sin(r), math.cos(r)
    q %= 4
    if q == 1:
        s, c = c, -s
    elif q == 2:
        s, c = -s, -c
    elif q == 3:
        s, c = -c, s
    c = c + 0.0
    if s == 0.0:
        s = math.copysign(s, x)
    return s, c


def _atan2d(y, x):
    q = 0
    if abs(y) > abs(x):
        x, y = y, x
        q = 2
    if x < 0:
        x = -x
        q += 1
    ang = math.degrees(math.atan2(y, x))
    if q == 1:
        ang = (180.0 if y >= 0 else -180.0) - ang
    elif q == 2:
        ang = 90.0 - ang
    elif q == 3:
        ang = -90.0 + ang
    return ang


def _norm2(s, c):
    r = math.hypot(s, c)
    return s / r, c / r


def _sin_cos_series(sinp, sinx, cosx, c):
    # Clenshaw summation of the trigonometric series with coefficients c;
    # c[0] is unused for the sine series
    k = len(c)
    n = k - (1 if sinp else 0)
    ar = 2.0 * (cosx - sinx) * (cosx + sinx)
    y1 = 0.0
    if n & 1:
        k -= 1
        y0 = c[k]
    else:
        y0 = 0.0
    n //= 2
    while n:
        n -= 1
        k -= 1
        y1 = ar * y0 - y1 + c[k]
        k -= 1
        y0 = ar * y1 - y0 + c[k]
    return 2.0 * sinx * cosx * y0 if sinp else cosx * (y0 - y1)


# ---------------------------------------------------------------------------
# sixth-order series coefficients (expansion parameter eps, third flattening n)


def _a1m1(eps):
    eps2 = eps * eps
    t = eps2 * (eps2 * (eps2 + 4.0) + 64.0) / 256.0
    return (t + eps) / (1.0 - eps)


def _c1(eps, c):
    eps2 = eps * eps
    d = eps
    c[1] = d * ((6.0 - eps2) * eps2 - 16.0) / 32.0
    d *= eps
    c[2] = d * ((64.0 - 9.0 * eps2) * eps2 - 128.0) / 2048.0
    d *= eps
    c[3] = d * (9.0 * eps2 - 16.0) / 768.0
    d *= eps
    c[4] = d * (3.0 * eps2 - 5.0) / 512.0
    d *= eps
    c[5] = -7.0 * d / 1280.0
    d *= eps
    c[6] = -7.0 * d / 2048.0


def _a2m1(eps):
    eps2 = eps * eps
    t = eps2 * (eps2 * (25.0 * eps2 + 36.0) + 64.0) / 256.0
    return t * (1.0 - eps) - eps


def _c2(eps, c):
    eps2 = eps * eps
    d = eps
    c[1] = d * (eps2 * (eps2 + 2.0) + 16.0) / 32.0
    d *= eps
    c[2] = d * (eps2 * (35.0 * eps2 + 64.0) + 384.0) / 2048.0
    d *= eps
    c[3] = d * (15.0 * eps2 + 80.0) / 768.0
    d *= eps
    c[4] = d * (7.0 * eps2 + 35.0) / 512.0
    d *= eps
    c[5] = 63.0 * d / 1280.0
    d *= eps
    c[6] = 77.0 * d / 2048.0


def _a3_coeffs(n):
    return [
        1.0,
        (n - 1.0) / 2.0,
        (n * (3.0 * n - 1.0) - 2.0) / 8.0,
        ((-n - 3.0) * n - 1.0) / 16.0,
        (-2.0 * n - 3.0) / 64.0,
        -3.0 / 128.0,
    ]


def _c3_coeffs(n):
    return [
        (1.0 - n) / 4.0,
        (1.0 - n * n) / 8.0,
        ((3.0 - n) * n + 3.0) / 64.0,
        (2.0 * n + 5.0) / 128.0,
        3.0 / 128.0,
        ((n - 3.0) * n + 2.0) / 32.0,
        ((-3.0 * n - 2.0) * n + 3.0) / 64.0,
        (n + 3.0) / 128.0,
        5.0 / 256.0,
        (n * (5.0 * n - 9.0) + 5.0) / 192.0,
        (9.0 - 10.0 * n) / 384.0,
        7.0 / 512.0,
        (7.0 - 14.0 * n) / 512.0,
        7.0 / 512.0,
        21.0 / 2560.0,
    ]


def _astroid(x, y):
    # positive root k of k^4 + 2k^3 - (x^2 + y^2 - 1)k^2 - 2y^2 k - y^2 = 0,
    # used for the starting azimuth in the near-antipodal region
    p = x * x
    q = y * y
    r = (p + q - 1.0) / 6.0
    if not (q == 0.0 and r <= 0.0):
        s = p * q / 4.0
        r2 = r * r
        r3 = r * r2
        disc = s * (s + 2.0 * r3)
        u = r
        if disc >= 0.0:
            t3 = s + r3
            t3 += -math.sqrt(disc) if t3 < 0.0 else math.sqrt(disc)
            t = math.copysign(abs(t3) ** (1.0 / 3.0), t3)
            u += t + (r2 / t if t != 0.0 else 0.0)
        else:
            ang = math.atan2(math.sqrt(-disc), -(s + r3))
            u += 2.0 * r * math.cos(ang / 3.0)
        v = math.sqrt(u * u + q)
        uv = q / (v - u) if u < 0.0 else u + v
        w = (uv - q) / (2.0 * v)
        return uv / (math.sqrt(uv + w * w) + w)
    return 0.0


class _Solver:
    """Inverse-problem solver for one ellipsoid; cache one per (a, f)."""

    def __init__(self, a, f):
        self.a = a
        self.f = f
        self.f1 = 1.0 - f
        self.e2 = f * (2.0 - f)
        self.ep2 = self.e2 / (self.f1 * self.f1)
        self.n = f / (2.0 - f)
        self.b = a * self.f1
        self.etol2 = 0.1 * _TOL2 / math.sqrt(max(0.001, abs(f)) * min(1.0, 1.0 - f / 2.0) / 2.0)
        self._a3x = _a3_coeffs(self.n)
        self._c3x = _c3_coeffs(self.n)

    def _a3f(self, eps):
        v = 0.0
        for coeff in reversed(self._a3x):
            v = eps * v + coeff
        return v

    def _c3f(self, eps, c):
        x = self._c3x
        mult = 1.0
        o = 0
        for l in range(1, 6):  # fill c[1]..c[5]
            m = 5 - l
            t = 0.0
            for i in range(m, -1, -1):
                t = eps * t + x[o + i]
            o += m + 1
            mult *= eps
            c[l] = mult * t

    def _lengths(self, eps, sig12, ssig1, csig1, dn1, ssig2, csig2, dn2,
                 cbet1, cbet2, reduced, c1a, c2a):
        # distance/b and (optionally) reduced length/b between sigma1 and sigma2
        _c1(eps, c1a)
        a1 = 1.0 + _a1m1(eps)
        b1 = (_sin_cos_series(True, ssig2, csig2, c1a) -
              _sin_cos_series(True, ssig1, csig1, c1a))
        s12b = a1 * (sig12 + b1)
        m12b = m0 = math.nan
        if reduced:
            _c2(eps, c2a)
            a2 = 1.0 + _a2m1(eps)
            b2 = (_sin_cos_series(True, ssig2, csig2, c2a) -
                  _sin_cos_series(True, ssig1, csig1, c2a))
            m0 = a1 - a2
            j12 = m0 * sig12 + (a1 * b1 - a2 * b2)
            m12b = (dn2 * (csig1 * ssig2) - dn1 * (ssig1 * csig2) -
                    csig1 * csig2 * j12)
        return s12b, m12b, m0

    def _inverse_start(self, sbet1, cbet1, sbet2, cbet2, lam12, slam12, clam12):
        # starting guess for alpha1; sig12 >= 0 means a short-line shortcut
        # was taken and (salp2, calp2) are also set
        sig12 = -1.0
        salp2 = calp2 = dnm = math.nan
        sbet12 = sbet2 * cbet1 - cbet2 * sbet1
        cbet12 = cbet2 * cbet1 + sbet2 * sbet1
        sbet12a = sbet2 * cbet1 + cbet2 * sbet1

        shortline = cbet12 >= 0.0 and sbet12 < 0.5 and cbet2 * lam12 < 0.5
        if shortline:
            sbetm2 = (sbet1 + sbet2) ** 2
            sbetm2 /= sbetm2 + (cbet1 + cbet2) ** 2
            dnm = math.sqrt(1.0 + self.ep2 * sbetm2)
            omg12 = lam12 / (self.f1 * dnm)
            somg12, comg12 = math.sin(omg12), math.cos(omg12)
        else:
            somg12, comg12 = slam12, clam12

        salp1 = cbet2 * somg12
        calp1 = (sbet12 + cbet2 * sbet1 * somg12 ** 2 / (1.0 + comg12)
                 if comg12 >= 0.0 else
                 sbet12a - cbet2 * sbet1 * somg12 ** 2 / (1.0 - comg12))

        ssig12 = math.hypot(salp1, calp1)
        csig12 = sbet1 * sbet2 + cbet1 * cbet2 * comg12

        if shortline and ssig12 < self.etol2:
            salp2 = cbet1 * somg12
            calp2 = sbet12 - cbet1 * sbet2 * (
                somg12 ** 2 / (1.0 + comg12) if comg12 >= 0.0 else 1.0 - comg12)
            salp2, calp2 = _norm2(salp2, calp2)
            sig12 = math.atan2(ssig12, csig12)
        elif (abs(self.n) > 0.1 or csig12 >= 0.0 or
              ssig12 >= 6.0 * abs(self.n) * math.pi * cbet1 ** 2):
            pass  # zeroth-order spherical start is good enough
        else:
            # near antipodal (oblate only; flattening is validated >= 0):
            # solve the astroid problem in scaled coordinates
            lam12x = math.atan2(-slam12, -clam12)
            k2 = sbet1 ** 2 * self.ep2
            eps = k2 / (2.0 * (1.0 + math.sqrt(1.0 + k2)) + k2)
            lamscale = self.f * cbet1 * self._a3f(eps) * math.pi
            betscale = lamscale * cbet1
            x = lam12x / lamscale
            y = sbet12a / betscale

            if y > -_TOL1 and x > -1.0 - _XTHRESH:
                salp1 = min(1.0, -x)
                calp1 = -math.sqrt(1.0 - salp1 ** 2)
            else:
                k = _astroid(x, y)
                omg12a = lamscale * (-x * k / (1.0 + k))
                somg12 = math.sin(omg12a)
                comg12 = -math.cos(omg12a)
                salp1 = cbet2 * somg12
                calp1 = sbet12a - cbet2 * sbet1 * somg12 ** 2 / (1.0 - comg12)

        if salp1 > 0.0:
            salp1, calp1 = _norm2(salp1, calp1)
        else:
            salp1, calp1 = 1.0, 0.0
        return sig12, salp1, calp1, salp2, calp2, dnm

    def _lambda12(self, sbet1, cbet1, dn1, sbet2, cbet2, dn2, salp1, calp1,
                  slam120, clam120, diffp, c1a, c2a, c3a):
        # residual of the longitude equation for trial alpha1, and its
        # derivative with respect to alpha1 when diffp
        if sbet1 == 0.0 and calp1 == 0.0:
            calp1 = -_TINY  # break the degeneracy of an equatorial line

        salp0 = salp1 * cbet1
        calp0 = math.hypot(calp1, salp1 * sbet1)

        ssig1 = sbet1
        somg1 = salp0 * sbet1
        csig1 = comg1 = calp1 * cbet1
        ssig1, csig1 = _norm2(ssig1, csig1)

        salp2 = salp0 / cbet2 if cbet2 != cbet1 else salp1
        calp2 = (math.sqrt((calp1 * cbet1) ** 2 +
                           ((cbet2 - cbet1) * (cbet1 + cbet2) if cbet1 < -sbet1
                            else (sbet1 - sbet2) * (sbet1 + sbet2))) / cbet2
                 if cbet2 != cbet1 or abs(sbet2) != -sbet1 else abs(calp1))
        ssig2 = sbet2
        somg2 = salp0 * sbet2
        csig2 = comg2 = calp2 * cbet2
        ssig2, csig2 = _norm2(ssig2, csig2)

        sig12 = math.atan2(max(0.0, csig1 * ssig2 - ssig1 * csig2),
                           csig1 * csig2 + ssig1 * ssig2)

        somg12 = max(0.0, comg1 * somg2 - somg1 * comg2)
        comg12 = comg1 * comg2 + somg1 * somg2
        # eta = omg12 - lam120
        eta = math.atan2(somg12 * clam120 - comg12 * slam120,
                         comg12 * clam120 + somg12 * slam120)

        k2 = calp0 ** 2 * self.ep2
        eps = k2 / (2.0 * (1.0 + math.sqrt(1.0 + k2)) + k2)
        self._c3f(eps, c3a)
        b312 = (_sin_cos_series(True, ssig2, csig2, c3a) -
                _sin_cos_series(True, ssig1, csig1, c3a))
        domg12 = -self.f * self._a3f(eps) * salp0 * (sig12 + b312)
        lam12 = eta + domg12

        if diffp:
            if calp2 == 0.0:
                dlam12 = -2.0 * self.f1 * dn1 / sbet1
            else:
                _, dlam12, _ = self._lengths(
                    eps, sig12, ssig1, csig1, dn1, ssig2, csig2, dn2,
                    cbet1, cbet2, True, c1a, c2a)
                dlam12 *= self.f1 / (calp2 * cbet2)
        else:
            dlam12 = math.nan

        return (lam12, salp2, calp2, sig12, ssig1, csig1, ssig2, csig2,
                eps, domg12, dlam12)

    def inverse(self, lat1, lon1, lat2, lon2):
        """Return (distance_m, azimuth1_deg, azimuth2_deg)."""
        lon12, lon12s = _ang_diff(lon1, lon2)
        lonsign = 1.0 if lon12 >= 0.0 else -1.0
        lon12 = lonsign * _ang_round(lon12)
        lon12s = _ang_round((180.0 - lon12) - lonsign * lon12s)
        lam12 = math.radians(lon12)
        if lon12 > 90.0:
            slam12, clam12 = _sincosd(lon12s)
            clam12 = -clam12
        else:
            slam12, clam12 = _sincosd(lon12)

        lat1 = _ang_round(lat1)
        lat2 = _ang_round(lat2)
        swapp = -1.0 if abs(lat1) < abs(lat2) else 1.0
        if swapp < 0.0:
            lonsign *= -1.0
            lat1, lat2 = lat2, lat1
        latsign = 1.0 if lat1 < 0.0 else -1.0
        lat1 *= latsign
        lat2 *= latsign

        sbet1, cbet1 = _sincosd(lat1)
        sbet1 *= self.f1
        sbet1, cbet1 = _norm2(sbet1, cbet1)
        cbet1 = max(_TINY, cbet1)

        sbet2, cbet2 = _sincosd(lat2)
        sbet2 *= self.f1
        sbet2, cbet2 = _norm2(sbet2, cbet2)
        cbet2 = max(_TINY, cbet2)

        # keep |bet1| >= |bet2| exactly when the latitudes coincide in
        # magnitude, so the azimuth symmetries hold
        if cbet1 < -sbet1:
            if cbet2 == cbet1:
                sbet2 = sbet1 if sbet2 < 0.0 else -sbet1
        else:
            if abs(sbet2) == -sbet1:
                cbet2 = cbet1

        dn1 = math.sqrt(1.0 + self.ep2 * sbet1 ** 2)
        dn2 = math.sqrt(1.0 + self.ep2 * sbet2 ** 2)

        c1a = [0.0] * 7
        c2a = [0.0] * 7
        c3a = [0.0] * 6

        meridian = lat1 == -90.0 or slam12 == 0.0
        s12x = m12x = math.nan
        sig12 = -1.0
        calp1 = salp1 = calp2 = salp2 = math.nan

        if meridian:
            calp1, salp1 = clam12, slam12
            calp2, salp2 = 1.0, 0.0
            ssig1, csig1 = sbet1, calp1 * cbet1
            ssig2, csig2 = sbet2, calp2 * cbet2
            sig12 = math.atan2(max(0.0, csig1 * ssig2 - ssig1 * csig2),
                               csig1 * csig2 + ssig1 * ssig2)
            s12x, m12x, _ = self._lengths(
                self.n, sig12, ssig1, csig1, dn1, ssig2, csig2, dn2,
                cbet1, cbet2, True, c1a, c2a)
            if sig12 < 1.0 or m12x >= 0.0:
                if sig12 < 3.0 * _TINY or (
                        sig12 < _TOL0 and (s12x < 0.0 or m12x < 0.0)):
                    sig12 = m12x = s12x = 0.0
                s12x *= self.b
            else:
                # defensive: a meridional path that is not shortest cannot
                # occur for the validated oblate/spherical domain
                meridian = False

        if (not meridian and sbet1 == 0.0 and
                (self.f <= 0.0 or lon12s >= self.f * 180.0)):
            # geodesic runs along the equator
            calp1 = calp2 = 0.0
            salp1 = salp2 = 1.0
            s12x = self.a * lam12
            sig12 = lam12 / self.f1
        elif not meridian:
            sig12, salp1, calp1, salp2, calp2, dnm = self._inverse_start(
                sbet1, cbet1, sbet2, cbet2, lam12, slam12, clam12)
            if sig12 >= 0.0:
                # short line: spherical approximation is already accurate
                s12x = sig12 * self.b * dnm
            else:
                # Newton iteration on alpha1, maintaining a bracket so the
                # iteration cannot escape or cycle
                tripn = tripb = False
                salp1a, calp1a = _TINY, 1.0
                salp1b, calp1b = _TINY, -1.0
                numit = 0
                eps = math.nan
                ssig1 = csig1 = ssig2 = csig2 = math.nan
                while numit < _MAXIT2:
                    (v, salp2, calp2, sig12, ssig1, csig1, ssig2, csig2,
                     eps, _, dv) = self._lambda12(
                        sbet1, cbet1, dn1, sbet2, cbet2, dn2, salp1, calp1,
                        slam12, clam12, numit < _MAXIT1, c1a, c2a, c3a)
                    if tripb or not (abs(v) >= (8.0 if tripn else 1.0) * _TOL0):
                        break
                    if v > 0.0 and (numit > _MAXIT1 or
                                    calp1 / salp1 > calp1b / salp1b):
                        salp1b, calp1b = salp1, calp1
                    elif v < 0.0 and (numit > _MAXIT1 or
                                      calp1 / salp1 < calp1a / salp1a):
                        salp1a, calp1a = salp1, calp1
                    numit += 1
                    if numit < _MAXIT1 and dv > 0.0:
                        dalp1 = -v / dv
                        sdalp1, cdalp1 = math.sin(dalp1), math.cos(dalp1)
                        nsalp1 = salp1 * cdalp1 + calp1 * sdalp1
                        if nsalp1 > 0.0 and abs(dalp1) < math.pi:
                            calp1 = calp1 * cdalp1 - salp1 * sdalp1
                            salp1 = nsalp1
                            salp1, calp1 = _norm2(salp1, calp1)
                            tripn = abs(v) <= 16.0 * _TOL0
                            continue
                    # Newton step rejected: bisect the bracket
                    salp1 = (salp1a + salp1b) / 2.0
                    calp1 = (calp1a + calp1b) / 2.0
                    salp1, calp1 = _norm2(salp1, calp1)
                    tripn = False
                    tripb = (abs(salp1a - salp1) + (calp1a - calp1) < _TOLB or
                             abs(salp1 - salp1b) + (calp1 - calp1b) < _TOLB)
                s12x, _, _ = self._lengths(
                    eps, sig12, ssig1, csig1, dn1, ssig2, csig2, dn2,
                    cbet1, cbet2, False, c1a, c2a)
                s12x *= self.b

        s12 = 0.0 + s12x  # -0 -> 0

        if swapp < 0.0:
            salp1, salp2 = salp2, salp1
            calp1, calp2 = calp2, calp1
        salp1 *= swapp * lonsign
        calp1 *= swapp * latsign
        salp2 *= swapp * lonsign
        calp2 *= swapp * latsign

        azi1 = _atan2d(salp1, calp1)
        azi2 = _atan2d(salp2, calp2)
        return s12, azi1, azi2


_solver_cache: dict[tuple[float, float], _Solver] = {}


def _solver_for(ellipsoid: Ellipsoid) -> _Solver:
    key = (ellipsoid.semi_major_axis_m, ellipsoid.flattening)
    solver = _solver_cache.get(key)
    if solver is None:
        solver = _Solver(*key)
        _solver_cache[key] = solver
    return solver


def geodesic_inverse(p1: GeoPoint, p2: GeoPoint,
                     ellipsoid: Ellipsoid = WGS84) -> InverseSolution:
    """Shortest ellipsoidal distance and end azimuths between two points.

    Coincident points return distance 0 with both azimuths 0 by convention.
    """
    for p in (p1, p2):
        if not (math.isfinite(p.latitude_deg) and math.isfinite(p.longitude_deg)):
            raise ValidationError(f"non-finite coordinate in {p!r}")
    if (p1.latitude_deg == p2.latitude_deg and
            p1.longitude_deg == p2.longitude_deg):
        return InverseSolution(0.0, 0.0, 0.0)
    s12, azi1, azi2 = _solver_for(ellipsoid).inverse(
        p1.latitude_deg, p1.longitude_deg, p2.latitude_deg, p2.longitude_deg)
    return InverseSolution(s12, azi1, azi2)


def probe_distances(link_start: GeoPoint, fixes, mode: str = "direct") -> list[float]:
    """Distance of the probe along the link at each GPS fix of a trace.

    "direct" measures straight from the link start; "cumulative" measures
    the first fix from the link start and adds each fix-to-fix increment
    to a running odometer, which tracks curved links better.
    """
    if mode not in ("direct", "cumulative"):
        raise ValueError(f"unknown distance mode {mode!r}")
    out = []
    prev = None
    running = 0.0
    for fix in fixes:
        if mode == "direct" or prev is None:
            running = geodesic_inverse(link_start, fix).distance_m
        else:
            running += geodesic_inverse(prev, fix).distance_m
        out.append(running)
        prev = fix
    return out
