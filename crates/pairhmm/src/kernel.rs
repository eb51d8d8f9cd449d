//! Flat, vectorization-friendly DP kernels shared by the full and banded
//! forward/backward passes.
//!
//! The recursions are restructured into per-row sweeps (see DESIGN.md §8):
//!
//! * **Forward, sweep 1** — `f_M(i, ·)` and `f_GX(i, ·)` depend only on row
//!   `i−1`, so the whole row is a branch-free elementwise loop over equal
//!   length slices that LLVM autovectorizes.
//! * **Forward, sweep 2** — `f_GY(i, j)` carries a serial dependency on
//!   `f_GY(i, j−1)` within the row; it runs as a separate scalar sweep
//!   reading the `f_M` values sweep 1 just produced.
//! * **Backward, sweep 1** — `b_GY(i, j)` depends on `b_GY(i, j+1)`; a
//!   serial descending-`j` sweep computes it first.
//! * **Backward, sweep 2** — `b_M(i, ·)` and `b_GX(i, ·)` then read only
//!   row `i+1` and the already-finished `b_GY` row: vectorizable.
//!
//! Every per-cell arithmetic expression is kept literally identical to the
//! original interleaved loops, so the restructured kernels are
//! **bit-identical** to the historical implementation — the conformance
//! harness (`gnumap verify`) depends on this.
//!
//! The forward pass is generic over a lane count `L`: each cell is a
//! `[f64; L]` holding `L` same-shape alignments, and every lane runs the
//! scalar cell arithmetic unchanged. The fused kernel in
//! [`crate::scratch`] runs it at `L = 4` and `L = 1`; the materialised
//! [`crate::forward()`] runs `L = 1` over its tables. The materialised
//! backward pass here stays scalar.
//!
//! Banding is expressed as per-row column bounds from the diagonal band
//! `j − i ∈ [lo, hi]`. The kernels write zero *sentinels* one cell left and
//! right of each row's band instead of clearing whole planes, so scratch
//! buffers can be reused across alignments without `O(N·M)` memsets: every
//! cell a later row reads is either freshly computed or an explicit zero.

use crate::emission::Emission;
use crate::params::PhmmParams;
use std::array::from_fn;

/// Diagonal band `lo <= j - i <= hi`; `None` = full table.
pub type Band = Option<(isize, isize)>;

/// Inclusive diagonal bounds for a read of length `n`, window of length
/// `m`, and band half-width `w`: cell `(i, j)` is inside iff
/// `lo <= j - i <= hi` (`Δ = M − N` absorbs the length difference).
pub fn diagonal_bounds(n: usize, m: usize, w: usize) -> (isize, isize) {
    let delta = m as isize - n as isize;
    (delta.min(0) - w as isize, delta.max(0) + w as isize)
}

/// Clamped column range `[j_min, j_max]` of the band in row `i` (1-based).
/// The bounds from [`diagonal_bounds`] always give a non-empty range for
/// `1 <= i <= n`.
#[inline]
pub fn row_range(band: Band, i: usize, m: usize) -> (usize, usize) {
    match band {
        None => (1, m),
        Some((lo, hi)) => {
            let j_min = (i as isize + lo).max(1) as usize;
            let j_max = ((i as isize + hi).min(m as isize)) as usize;
            debug_assert!(1 <= j_min && j_min <= j_max && j_max <= m);
            (j_min, j_max)
        }
    }
}

/// One-time shape validation for a kernel call over `(n+1) × (m+1)`
/// planes. All per-cell asserts live here, outside the hot loops.
#[inline]
fn validate_planes<T>(n: usize, m: usize, planes: [&[T]; 3]) -> usize {
    assert!(n >= 1, "read must be non-empty");
    assert!(m >= 1, "window must be non-empty");
    let stride = m + 1;
    let plane = (n + 1) * stride;
    for p in planes {
        assert!(p.len() >= plane, "DP plane too small for {n}x{m}");
    }
    stride
}

/// Compute one forward row `i` from row `i−1`, two-sweep, for `L`
/// independent alignments of the same shape in lockstep. `mp`/`xp`/`yp`
/// are row `i−1`; `mc`/`xc`/`yc` are row `i` (each of length `m + 1`);
/// `erow` is the emission row `p*(i, ·)`. Every lane runs exactly the
/// scalar cell arithmetic; the `G_Y` carry is `L` independent chains.
/// Writes zero sentinels one cell left and right of the band so stale
/// buffers need no pre-clearing.
#[inline]
#[allow(clippy::too_many_arguments)]
fn forward_row<const L: usize>(
    params: &PhmmParams,
    erow: &[[f64; L]],
    mp: &[[f64; L]],
    xp: &[[f64; L]],
    yp: &[[f64; L]],
    mc: &mut [[f64; L]],
    xc: &mut [[f64; L]],
    yc: &mut [[f64; L]],
    j_min: usize,
    j_max: usize,
    m: usize,
) {
    let &PhmmParams {
        t_mm,
        t_mg,
        t_gm,
        t_gg,
        q,
        ..
    } = params;

    // Zero sentinels bounding the band in the (possibly stale) row.
    for row in [&mut *mc, &mut *xc, &mut *yc] {
        row[j_min - 1] = [0.0; L];
        if j_max < m {
            row[j_max + 1] = [0.0; L];
        }
    }

    // Sweep 1 (vectorizable): M and G_X read row i-1 only.
    //   f_M(i,j)  = p*(i,j)·[T_MM·f_M(i−1,j−1) + T_GM·(f_GX + f_GY)(i−1,j−1)]
    //   f_GX(i,j) = q·[T_MG·f_M(i−1,j) + T_GG·f_GX(i−1,j)]
    let it = mc[j_min..=j_max]
        .iter_mut()
        .zip(xc[j_min..=j_max].iter_mut())
        .zip(&erow[j_min - 1..j_max])
        .zip(&mp[j_min - 1..j_max])
        .zip(&xp[j_min - 1..j_max])
        .zip(&yp[j_min - 1..j_max])
        .zip(&mp[j_min..=j_max])
        .zip(&xp[j_min..=j_max]);
    for (((((((mv, xv), e), mpd), xpd), ypd), mps), xps) in it {
        *mv = from_fn(|l| e[l] * (t_mm * mpd[l] + t_gm * (xpd[l] + ypd[l])));
        *xv = from_fn(|l| q * (t_mg * mps[l] + t_gg * xps[l]));
    }

    // Sweep 2 (serial carry per lane): G_Y within row i.
    //   f_GY(i,j) = q·[T_MG·f_M(i,j−1) + T_GG·f_GY(i,j−1)]
    let mut carry = yc[j_min - 1];
    for (yv, mcl) in yc[j_min..=j_max].iter_mut().zip(&mc[j_min - 1..j_max]) {
        carry = from_fn(|l| q * (t_mg * mcl[l] + t_gg * carry[l]));
        *yv = carry;
    }
}

/// Forward pass of `L` lockstep alignments into the flat `(n+1) × (m+1)`
/// row-major planes `[f_M, f_GX, f_GY]` of `[f64; L]` cells (row stride
/// `m + 1`); `emit` is the `n × m` emission table with one lane per
/// alignment. Returns each lane's total likelihood. The planes may hold
/// stale data from a previous alignment: every cell the recursion reads
/// is freshly written or an explicit zero sentinel, so no pre-clearing is
/// needed. Only the emission cells inside the band are read.
pub fn forward_planes<const L: usize>(
    emit: &[[f64; L]],
    n: usize,
    m: usize,
    params: &PhmmParams,
    [fm, fx, fy]: [&mut [[f64; L]]; 3],
    band: Band,
) -> [f64; L] {
    let stride = validate_planes(n, m, [fm, fx, fy]);
    assert!(emit.len() >= n * m, "emission table too small for {n}x{m}");

    // Border row 0: zero over the range row 1 reads, with f_M(0,0) = 1.
    let (_, hi0) = row_range(band, 1, m);
    for p in [&mut *fm, &mut *fx, &mut *fy] {
        p[..=hi0].fill([0.0; L]);
    }
    fm[0] = [1.0; L];

    for i in 1..=n {
        let (j_min, j_max) = row_range(band, i, m);
        let base = (i - 1) * stride;
        let (mp, mc) = fm[base..base + 2 * stride].split_at_mut(stride);
        let (xp, xc) = fx[base..base + 2 * stride].split_at_mut(stride);
        let (yp, yc) = fy[base..base + 2 * stride].split_at_mut(stride);
        forward_row(
            params,
            &emit[(i - 1) * m..i * m],
            mp,
            xp,
            yp,
            mc,
            xc,
            yc,
            j_min,
            j_max,
            m,
        );
    }

    let end = n * stride + m;
    from_fn(|l| fm[end][l] + fx[end][l] + fy[end][l])
}

/// Backward pass into flat `(n+1) × (m+1)` planes. The planes must be
/// zero-filled on entry (unlike [`forward_planes`], the full-table
/// backward is only used on freshly allocated tables; the scratch-arena
/// hot path streams the backward pass through rolling rows instead — see
/// [`crate::scratch`]). Returns the backward total
/// `p*(1,1) · T_MM · b_M(1,1)`.
pub fn backward_planes(
    emit: Emission<'_>,
    params: &PhmmParams,
    bm: &mut [f64],
    bx: &mut [f64],
    by: &mut [f64],
    band: Band,
) -> f64 {
    let (n, m) = (emit.n(), emit.m());
    let stride = validate_planes(n, m, [bm, bx, by]);
    let &PhmmParams {
        t_mm,
        t_mg,
        t_gm,
        t_gg,
        q,
        ..
    } = params;

    // Terminal row n: b(N, M) = 1 in all three states; diag emissions are
    // out of range (p* = 0), so the row reduces to gap-extension carries.
    {
        let row = n * stride;
        bm[row + m] = 1.0;
        bx[row + m] = 1.0;
        by[row + m] = 1.0;
        let (j_min, _) = row_range(band, n, m);
        let mut carry = 1.0; // b_GY(n, m)
        for j in (j_min..m).rev() {
            // b_GY(n,j) = q·T_GG·b_GY(n,j+1);  b_M(n,j) = q·T_MG·b_GY(n,j+1)
            bm[row + j] = q * t_mg * carry;
            carry *= q * t_gg;
            by[row + j] = carry;
            // b_GX(n,j) feeds only from row n+1 (zero): stays 0.
        }
    }

    for i in (1..n).rev() {
        let (j_min, j_max) = row_range(band, i, m);
        let base = i * stride;
        let (cur, next) = bm[base..base + 2 * stride].split_at_mut(stride);
        let (bm_cur, bm_next) = (cur, &*next);
        let (cur, next) = bx[base..base + 2 * stride].split_at_mut(stride);
        let (bx_cur, bx_next) = (cur, &*next);
        let by_cur = &mut by[base..base + stride];
        let erow = emit.row(i); // diag for cell (i, j) = p*(i+1, j+1)

        // Sweep 1 (serial, descending): G_Y carries right-to-left.
        //   b_GY(i,j) = p*(i+1,j+1)·T_GM·b_M(i+1,j+1) + q·T_GG·b_GY(i,j+1)
        let mut carry = 0.0; // b_GY(i, j_max+1) is out of band / table: 0
        for j in (j_min..=j_max).rev() {
            let (diag, bm_diag) = if j < m {
                (erow[j], bm_next[j + 1])
            } else {
                (0.0, 0.0)
            };
            carry = diag * t_gm * bm_diag + q * t_gg * carry;
            by_cur[j] = carry;
        }

        // Sweep 2 (vectorizable): M and G_X read row i+1 and the finished
        // G_Y row.
        //   b_M(i,j)  = p*·T_MM·b_M(i+1,j+1) + q·T_MG·[b_GX(i+1,j) + b_GY(i,j+1)]
        //   b_GX(i,j) = p*·T_GM·b_M(i+1,j+1) + q·T_GG·b_GX(i+1,j)
        if j_max == m {
            // Column m reads past the table on the diagonal (p* = 0).
            bm_cur[m] = q * t_mg * (bx_next[m] + 0.0);
            bx_cur[m] = q * t_gg * bx_next[m];
        }
        let hi = j_max.min(m - 1);
        if j_min <= hi {
            let it = bm_cur[j_min..=hi]
                .iter_mut()
                .zip(bx_cur[j_min..=hi].iter_mut())
                .zip(&erow[j_min..=hi])
                .zip(&bm_next[j_min + 1..=hi + 1])
                .zip(&bx_next[j_min..=hi])
                .zip(&by_cur[j_min + 1..=hi + 1]);
            for (((((mv, xv), &diag), &bmd), &bxn), &byr) in it {
                *mv = diag * t_mm * bmd + q * t_mg * (bxn + byr);
                *xv = diag * t_gm * bmd + q * t_gg * bxn;
            }
        }
    }

    emit.at(0, 0) * t_mm * bm[stride + 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagonal_bounds_cover_terminal_cell() {
        for (n, m, w) in [(5usize, 5usize, 0usize), (4, 8, 0), (8, 4, 2), (62, 62, 4)] {
            let (lo, hi) = diagonal_bounds(n, m, w);
            let d = m as isize - n as isize;
            assert!(lo <= 0 && hi >= 0, "band must include the origin diagonal");
            assert!(lo <= d && d <= hi, "band must include the terminal cell");
            for i in 1..=n {
                let (j_min, j_max) = row_range(Some((lo, hi)), i, m);
                assert!(1 <= j_min && j_min <= j_max && j_max <= m, "row {i}");
            }
        }
    }

    #[test]
    fn full_row_range_is_whole_row() {
        assert_eq!(row_range(None, 3, 7), (1, 7));
    }
}
