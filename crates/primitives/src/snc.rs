//! SNC — one-round neighbourhood communication (paper Appendix A.1).
//!
//! A trivially thin wrapper over one engine superstep, named to keep the
//! correspondence with the paper's task vocabulary explicit.

use congest_sim::{CongestError, Inbox, Network, WireMsg};

/// Execute one SNC: every node sends `build(v, state)` messages to
/// neighbours and absorbs its inbox with `absorb`. Returns the rounds
/// charged (1 unless messages exceed the per-edge word budget).
pub fn exchange<S, M>(
    net: &mut Network,
    states: &mut [S],
    build: impl Fn(u32, &S) -> Vec<(u32, M)>,
    absorb: impl Fn(u32, &mut S, Inbox<'_, M>),
) -> Result<u64, CongestError>
where
    M: WireMsg,
{
    net.superstep(states, build, absorb)
}

/// Convenience SNC: every node learns each neighbour's value of `value(v)`.
/// Returns, per node, the `(neighbor, value)` pairs (sorted by neighbour).
pub fn share_with_neighbors<V>(
    net: &mut Network,
    value: impl Fn(u32) -> V,
) -> Result<Vec<Vec<(u32, V)>>, CongestError>
where
    V: WireMsg + std::fmt::Debug,
{
    let g = net.graph_handle();
    let mut states: Vec<Vec<(u32, V)>> = vec![Vec::new(); net.n()];
    net.superstep(
        &mut states,
        |u, _s| {
            let mine = value(u);
            g.neighbors(u).iter().map(|&v| (v, mine.clone())).collect()
        },
        |_v, s, inbox| {
            *s = inbox.into_iter().collect();
        },
    )?;
    Ok(states)
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_sim::{Network, NetworkConfig};
    use twgraph::gen::cycle;

    #[test]
    fn neighbors_learn_values() {
        let g = cycle(5);
        let mut net = Network::new(g, NetworkConfig::default());
        let got = share_with_neighbors(&mut net, |v| v as u64 * 10).unwrap();
        assert_eq!(got[0], vec![(1, 10), (4, 40)]);
        assert_eq!(net.metrics().rounds, 1);
    }

    #[test]
    fn exchange_is_single_round_for_single_words() {
        let g = cycle(4);
        let mut net = Network::new(g.clone(), NetworkConfig::default());
        let mut states = vec![0u64; 4];
        let r = exchange(
            &mut net,
            &mut states,
            |u, _| g.neighbors(u).iter().map(|&v| (v, 1u32)).collect(),
            |_, s, inbox| *s = inbox.len() as u64,
        )
        .unwrap();
        assert_eq!(r, 1);
        assert!(states.iter().all(|&c| c == 2));
    }
}
