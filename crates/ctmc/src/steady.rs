//! Mean time to absorption (the MTTF behind `rsmem metrics`).

use crate::dense::DenseMatrix;
use crate::model::StateSpace;
use crate::CtmcError;
use std::fmt::Debug;
use std::hash::Hash;

/// Mean time to absorption from the initial state.
///
/// Solves `Q_TT · τ = −1` on the transient (non-absorbing) subchain; the
/// entry for the initial state is returned.
///
/// # Errors
///
/// [`CtmcError::NoAbsorbingState`] when every state has an exit;
/// [`CtmcError::SingularSystem`] when absorption is not certain from the
/// initial state (the expectation diverges).
pub fn mean_time_to_absorption<S>(space: &StateSpace<S>) -> Result<f64, CtmcError>
where
    S: Clone + Eq + Hash + Debug,
{
    let absorbing = space.absorbing_states();
    if absorbing.is_empty() {
        return Err(CtmcError::NoAbsorbingState);
    }
    let n = space.len();
    let transient: Vec<usize> = (0..n).filter(|i| space.exit_rate(*i) > 0.0).collect();
    if transient.is_empty() {
        return Ok(0.0);
    }
    let mut pos = vec![usize::MAX; n];
    for (row, &i) in transient.iter().enumerate() {
        pos[i] = row;
    }
    let m = transient.len();
    let mut a = DenseMatrix::zeros(m);
    for (row, &i) in transient.iter().enumerate() {
        a[(row, row)] = -space.exit_rate(i);
        for (j, r) in space.rates().row(i) {
            if pos[j] != usize::MAX {
                a[(row, pos[j])] += r;
            }
        }
    }
    let b = vec![-1.0; m];
    let tau = a.solve(&b)?;
    if tau.iter().any(|&x| !(x.is_finite() && x >= 0.0)) {
        return Err(CtmcError::SingularSystem);
    }
    let init = space.initial_index();
    if pos[init] == usize::MAX {
        return Ok(0.0); // initial state is itself absorbing
    }
    Ok(tau[pos[init]])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MarkovModel;

    /// Irreducible two-state chain: 0 --a--> 1, 1 --b--> 0.
    struct Flip {
        a: f64,
        b: f64,
    }
    impl MarkovModel for Flip {
        type State = u8;
        fn initial_state(&self) -> u8 {
            0
        }
        fn transitions(&self, s: &u8, out: &mut Vec<(u8, f64)>) {
            match s {
                0 => out.push((1, self.a)),
                _ => out.push((0, self.b)),
            }
        }
    }

    /// Good -λ-> Fail (absorbing).
    struct Die {
        lambda: f64,
    }
    impl MarkovModel for Die {
        type State = u8;
        fn initial_state(&self) -> u8 {
            0
        }
        fn transitions(&self, s: &u8, out: &mut Vec<(u8, f64)>) {
            if *s == 0 {
                out.push((1, self.lambda));
            }
        }
    }

    #[test]
    fn mtta_of_exponential_is_reciprocal_rate() {
        let space = StateSpace::explore(&Die { lambda: 0.25 }).unwrap();
        let mtta = mean_time_to_absorption(&space).unwrap();
        assert!((mtta - 4.0).abs() < 1e-10);
    }

    /// Good <-> Degraded -> Fail: MTTA has a closed form.
    struct Repairable;
    impl MarkovModel for Repairable {
        type State = u8;
        fn initial_state(&self) -> u8 {
            0
        }
        fn transitions(&self, s: &u8, out: &mut Vec<(u8, f64)>) {
            match s {
                0 => out.push((1, 1.0)),
                1 => {
                    out.push((0, 5.0));
                    out.push((2, 0.2));
                }
                _ => {}
            }
        }
    }

    #[test]
    fn repairable_mtta_closed_form() {
        // τ0 = 1/λ + τ1; τ1 = 1/(μ+δ) + μ/(μ+δ)·τ0, with λ=1, μ=5, δ=0.2:
        // τ1 = (1 + μ·τ0)/(μ+δ); solving: τ0 = (μ+δ+λ)/(λδ) = 6.2/0.2 = 31.
        let space = StateSpace::explore(&Repairable).unwrap();
        let mtta = mean_time_to_absorption(&space).unwrap();
        assert!((mtta - 31.0).abs() < 1e-9, "{mtta}");
    }

    #[test]
    fn mtta_requires_an_absorbing_state() {
        let space = StateSpace::explore(&Flip { a: 1.0, b: 1.0 }).unwrap();
        assert_eq!(
            mean_time_to_absorption(&space),
            Err(CtmcError::NoAbsorbingState)
        );
    }
}
