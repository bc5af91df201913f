//! Branch-free gather kernels from `u32` code slices into `f64` slices.
//!
//! The encoded loss kernels — loss/precision scatters and discernibility
//! penalties — reduce to the same primitive: walk a dense `u32` code
//! slice and gather a per-code term into an output slice.
//! Written naively (`out[i] += terms[codes[i] as usize]`), every iteration
//! carries a bounds check whose branch the autovectorizer refuses to hoist.
//!
//! The kernels here hoist that check: one vectorizable max-reduction
//! validates *every* index up front, after which the inner loop runs on
//! `get_unchecked` over `chunks_exact` blocks with scalar accumulators —
//! no per-row branches, no per-row bounds tests, nothing the optimizer has
//! to prove. The up-front validation makes the `unsafe` blocks sound by
//! construction: an out-of-range code panics before the loop starts, with
//! the same message a slice index would produce.
//!
//! All kernels are exact: they perform the same additions in the same
//! per-row order as their naive counterparts, so results are bit-identical
//! (f64 addition order per output element is unchanged — each row touches
//! its own accumulator exactly once per call).

/// Width of the manually unrolled blocks. Eight `u32` lanes fill a 256-bit
/// vector register; the `f64` kernels still profit via two 4-lane ops.
const LANES: usize = 8;

/// Maximum value in `codes`, or `None` when empty. Branch-free reduction.
#[inline]
fn max_code(codes: &[u32]) -> Option<u32> {
    if codes.is_empty() {
        return None;
    }
    let mut lanes = [0u32; LANES];
    let mut chunks = codes.chunks_exact(LANES);
    for block in &mut chunks {
        for (m, &c) in lanes.iter_mut().zip(block) {
            *m = (*m).max(c);
        }
    }
    let mut max = chunks.remainder().iter().copied().fold(0u32, u32::max);
    for m in lanes {
        max = max.max(m);
    }
    Some(max)
}

/// Panics unless every code in `codes` indexes into a table of `len`
/// entries — the single up-front check that licenses the unchecked loops.
#[inline]
fn validate_codes(codes: &[u32], len: usize, what: &str) {
    if let Some(max) = max_code(codes) {
        assert!(
            (max as usize) < len,
            "{what}: code {max} out of range for table of {len}"
        );
    }
}

/// Scatter-add gather: `acc[i] += terms[codes[i]]` for every `i`.
///
/// The encoded loss/precision kernels evaluate one term per distinct
/// generalized value and sum per-column contributions row-wise through
/// this. Addition order per accumulator element matches the naive loop
/// exactly (one add per call), so results stay bit-identical.
///
/// # Panics
/// If `acc` and `codes` differ in length, or any code is out of range.
pub fn gather_add_f64(acc: &mut [f64], codes: &[u32], terms: &[f64]) {
    assert_eq!(acc.len(), codes.len(), "gather_add_f64: length mismatch");
    validate_codes(codes, terms.len(), "gather_add_f64");
    let mut acc_blocks = acc.chunks_exact_mut(LANES);
    let mut code_blocks = codes.chunks_exact(LANES);
    for (ab, cb) in (&mut acc_blocks).zip(&mut code_blocks) {
        for (a, &c) in ab.iter_mut().zip(cb) {
            // SAFETY: validate_codes proved every code < terms.len().
            *a += unsafe { *terms.get_unchecked(c as usize) };
        }
    }
    for (a, &c) in acc_blocks
        .into_remainder()
        .iter_mut()
        .zip(code_blocks.remainder())
    {
        // SAFETY: as above.
        *a += unsafe { *terms.get_unchecked(c as usize) };
    }
}

/// Plain gather into `f64`: `out[i] = terms[codes[i]]`.
///
/// The discernibility kernel: `codes` are per-row class ids, `terms` the
/// per-class penalties.
///
/// # Panics
/// If `out` and `codes` differ in length, or any code is out of range.
pub fn gather_f64(out: &mut [f64], codes: &[u32], terms: &[f64]) {
    assert_eq!(out.len(), codes.len(), "gather_f64: length mismatch");
    validate_codes(codes, terms.len(), "gather_f64");
    let mut out_blocks = out.chunks_exact_mut(LANES);
    let mut code_blocks = codes.chunks_exact(LANES);
    for (ob, cb) in (&mut out_blocks).zip(&mut code_blocks) {
        for (o, &c) in ob.iter_mut().zip(cb) {
            // SAFETY: validate_codes proved every code < terms.len().
            *o = unsafe { *terms.get_unchecked(c as usize) };
        }
    }
    for (o, &c) in out_blocks
        .into_remainder()
        .iter_mut()
        .zip(code_blocks.remainder())
    {
        // SAFETY: as above.
        *o = unsafe { *terms.get_unchecked(c as usize) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gather_add_f64_matches_naive() {
        let codes: Vec<u32> = (0..41).map(|i| (i * 3) % 4).collect();
        let terms = [0.25, -1.5, 3.75, 0.125];
        let mut acc: Vec<f64> = (0..codes.len()).map(|i| i as f64 * 0.5).collect();
        let mut naive = acc.clone();
        gather_add_f64(&mut acc, &codes, &terms);
        for (a, &c) in naive.iter_mut().zip(&codes) {
            *a += terms[c as usize];
        }
        assert_eq!(acc, naive, "bit-identical accumulation");
    }

    #[test]
    fn gather_f64_matches_naive() {
        let codes: Vec<u32> = (0..19).map(|i| i % 3).collect();
        let terms = [7.0, 8.0, 9.0];
        let mut out = vec![0.0; codes.len()];
        gather_f64(&mut out, &codes, &terms);
        let naive: Vec<f64> = codes.iter().map(|&c| terms[c as usize]).collect();
        assert_eq!(out, naive);
    }

    #[test]
    fn empty_inputs_are_noops() {
        gather_add_f64(&mut [], &[], &[]);
        gather_f64(&mut [], &[], &[]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_code_panics_before_the_loop() {
        let mut out = vec![0.0; 3];
        gather_f64(&mut out, &[0, 5, 1], &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn length_mismatch_panics() {
        let mut out = vec![0.0; 2];
        gather_f64(&mut out, &[0, 1, 2], &[1.0, 2.0, 3.0]);
    }
}
