//! # unchained-exchange
//!
//! Peer-to-peer data exchange with forward-chaining rules — the fourth
//! practical adoption domain named in the paper's abstract
//! ("distributed data exchange") and surveyed in Section 6 (Webdamlog
//! \[11\], Orchestra \[78\], and the "think global, act local" collaborative
//! workflows of \[16\]).
//!
//! The model is a deliberately small core of Webdamlog:
//!
//! * a **network** is a set of named peers, each holding a local
//!   [`Instance`] and a local Datalog¬ program evaluated under the
//!   **inflationary** (forward chaining) semantics — the semantics
//!   Webdamlog itself adopts;
//! * peers **export** facts: an export declaration `(local, to, remote)`
//!   ships every fact of the local relation `local` to peer `to`'s
//!   relation `remote` at the end of a round;
//! * a **round** runs every peer's local fixpoint and then delivers all
//!   exports; the network converges when a round delivers nothing new
//!   anywhere.
//!
//! Convergence is guaranteed for Datalog¬ rule sets on a fixed global
//! active domain (facts only accumulate), mirroring the inflationary
//! argument of Section 4.1 lifted to the network.
//!
//! The [`temporal`] module adds the Dedalus-style time dimension
//! ("Datalog in time and space", Section 6) for data-driven *reactive*
//! systems: deductive rules within a timestep, inductive rules across
//! timesteps, explicit persistence, and limit-cycle detection.
//!
//! ## Example
//!
//! ```
//! use unchained_common::{Instance, Interner, Tuple, Value};
//! use unchained_exchange::{Network, Peer};
//! use unchained_parser::parse_program;
//!
//! let mut interner = Interner::new();
//! // Peer "left" computes reachability over its edges and shares T.
//! let program = parse_program(
//!     "T(x,y) :- G(x,y). T(x,y) :- G(x,z), T(z,y). T(x,y) :- G(x,z), Timp(z,y).",
//!     &mut interner,
//! ).unwrap();
//! let g = interner.get("G").unwrap();
//! let t = interner.get("T").unwrap();
//! let timp = interner.get("Timp").unwrap();
//!
//! let mut network = Network::new();
//! let mut left_db = Instance::new();
//! left_db.insert_fact(g, Tuple::from([Value::Int(1), Value::Int(2)]));
//! let mut right_db = Instance::new();
//! right_db.insert_fact(g, Tuple::from([Value::Int(2), Value::Int(3)]));
//! network.add_peer(Peer::new("left", program.clone(), left_db)
//!     .exporting(t, "right", timp));
//! network.add_peer(Peer::new("right", program, right_db)
//!     .exporting(t, "left", timp));
//!
//! let report = network.run_to_convergence(100).unwrap();
//! // Peer "left" learns the cross-peer path 1 → 3.
//! let left = network.peer("left").unwrap();
//! assert!(left.database.contains_fact(t, &Tuple::from([Value::Int(1), Value::Int(3)])));
//! assert!(report.rounds >= 2);
//! ```

pub mod temporal;

use std::collections::BTreeMap;
use std::fmt;
use unchained_common::{Instance, Symbol};
use unchained_core::{inflationary, EvalError, EvalOptions};
use unchained_parser::Program;

/// An export declaration: ship facts of `local` to peer `to`'s
/// relation `remote` after each round.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Export {
    /// Local relation whose facts are shipped.
    pub local: Symbol,
    /// Destination peer name.
    pub to: String,
    /// Relation name at the destination.
    pub remote: Symbol,
}

/// A peer: a name, a local rule program (Datalog¬, inflationary
/// semantics), a local database, and export declarations.
#[derive(Clone, Debug)]
pub struct Peer {
    /// The peer's name (network-unique).
    pub name: String,
    /// Local forward-chaining rules.
    pub program: Program,
    /// Local database.
    pub database: Instance,
    /// Export declarations.
    pub exports: Vec<Export>,
}

impl Peer {
    /// Creates a peer.
    pub fn new(name: impl Into<String>, program: Program, database: Instance) -> Self {
        Peer {
            name: name.into(),
            program,
            database,
            exports: Vec::new(),
        }
    }

    /// Adds an export declaration (builder style).
    pub fn exporting(mut self, local: Symbol, to: impl Into<String>, remote: Symbol) -> Self {
        self.exports.push(Export {
            local,
            to: to.into(),
            remote,
        });
        self
    }
}

/// Errors from a network run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExchangeError {
    /// A peer's local evaluation failed.
    Local {
        /// The peer.
        peer: String,
        /// The underlying engine error.
        error: EvalError,
    },
    /// An export references a peer that does not exist.
    UnknownPeer {
        /// The exporting peer.
        from: String,
        /// The missing destination.
        to: String,
    },
    /// The network did not converge within the round budget.
    RoundLimitExceeded(usize),
}

impl fmt::Display for ExchangeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExchangeError::Local { peer, error } => {
                write!(f, "peer `{peer}`: {error}")
            }
            ExchangeError::UnknownPeer { from, to } => {
                write!(f, "peer `{from}` exports to unknown peer `{to}`")
            }
            ExchangeError::RoundLimitExceeded(n) => {
                write!(f, "network did not converge within {n} rounds")
            }
        }
    }
}

impl std::error::Error for ExchangeError {}

/// Statistics of a converged run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExchangeReport {
    /// Rounds executed, including the final quiescent round.
    pub rounds: usize,
    /// Total facts delivered across peers over the whole run.
    pub delivered: usize,
    /// Total local fixpoint stages summed over peers and rounds.
    pub local_stages: usize,
}

/// A network of peers.
#[derive(Clone, Default, Debug)]
pub struct Network {
    peers: BTreeMap<String, Peer>,
}

impl Network {
    /// Creates an empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds (or replaces) a peer.
    pub fn add_peer(&mut self, peer: Peer) {
        self.peers.insert(peer.name.clone(), peer);
    }

    /// Looks up a peer by name.
    pub fn peer(&self, name: &str) -> Option<&Peer> {
        self.peers.get(name)
    }

    /// Runs one round: every peer's local inflationary fixpoint, then
    /// all deliveries. Returns `(facts delivered, local stages)`.
    pub fn round(&mut self, options: EvalOptions) -> Result<(usize, usize), ExchangeError> {
        // 1. Local fixpoints.
        let mut stages = 0;
        let names: Vec<String> = self.peers.keys().cloned().collect();
        for name in &names {
            let peer = self.peers.get_mut(name).expect("listed");
            let run = inflationary::eval(&peer.program, &peer.database, options.clone()).map_err(
                |error| ExchangeError::Local {
                    peer: name.clone(),
                    error,
                },
            )?;
            peer.database = run.instance;
            stages += run.stages;
        }
        // 2. Collect deliveries (reading phase, no mutation).
        let mut deliveries: Vec<(String, Symbol, unchained_common::Relation)> = Vec::new();
        for (name, peer) in &self.peers {
            for export in &peer.exports {
                if !self.peers.contains_key(&export.to) {
                    return Err(ExchangeError::UnknownPeer {
                        from: name.clone(),
                        to: export.to.clone(),
                    });
                }
                if let Some(rel) = peer.database.relation(export.local) {
                    if !rel.is_empty() {
                        deliveries.push((export.to.clone(), export.remote, rel.clone()));
                    }
                }
            }
        }
        // 3. Deliver.
        let mut delivered = 0;
        for (to, remote, rel) in deliveries {
            let target = self.peers.get_mut(&to).expect("validated");
            delivered += target.database.ensure(remote, rel.arity()).union_with(&rel);
        }
        Ok((delivered, stages))
    }

    /// Runs rounds until a round delivers nothing new, or the budget is
    /// exhausted.
    pub fn run_to_convergence(
        &mut self,
        max_rounds: usize,
    ) -> Result<ExchangeReport, ExchangeError> {
        let options = EvalOptions::default();
        let mut report = ExchangeReport {
            rounds: 0,
            delivered: 0,
            local_stages: 0,
        };
        loop {
            report.rounds += 1;
            if report.rounds > max_rounds {
                return Err(ExchangeError::RoundLimitExceeded(max_rounds));
            }
            let (delivered, stages) = self.round(options.clone())?;
            report.delivered += delivered;
            report.local_stages += stages;
            if delivered == 0 {
                return Ok(report);
            }
        }
    }

    /// The union of all peers' databases (the "global" view used to
    /// compare against a centralized run).
    pub fn global_view(&self) -> Instance {
        let mut global = Instance::new();
        for peer in self.peers.values() {
            for (pred, rel) in peer.database.iter() {
                if rel.is_empty() {
                    global.ensure(pred, rel.arity());
                } else {
                    global.ensure(pred, rel.arity()).union_with(rel);
                }
            }
        }
        global
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unchained_common::{Interner, Tuple, Value};
    use unchained_parser::parse_program;

    /// Split a line graph's edges across two peers; they exchange
    /// reachability facts and jointly compute the global transitive
    /// closure ("think global, act local").
    #[test]
    fn two_peer_transitive_closure_converges_to_global() {
        let mut i = Interner::new();
        // Each peer folds imported reachability (Timp) into its own T.
        let program = parse_program(
            "T(x,y) :- G(x,y).\n\
             T(x,y) :- T(x,z), T(z,y).\n\
             T(x,y) :- Timp(x,y).",
            &mut i,
        )
        .unwrap();
        let g = i.get("G").unwrap();
        let t = i.get("T").unwrap();
        let timp = i.get("Timp").unwrap();

        let n = 8i64;
        let mut even_db = Instance::new();
        let mut odd_db = Instance::new();
        for k in 0..n - 1 {
            let fact = Tuple::from([Value::Int(k), Value::Int(k + 1)]);
            if k % 2 == 0 {
                even_db.insert_fact(g, fact);
            } else {
                odd_db.insert_fact(g, fact);
            }
        }

        let mut network = Network::new();
        network.add_peer(Peer::new("even", program.clone(), even_db).exporting(t, "odd", timp));
        network.add_peer(Peer::new("odd", program.clone(), odd_db).exporting(t, "even", timp));
        let report = network.run_to_convergence(100).unwrap();
        assert!(report.rounds > 1, "cross-peer paths need exchange");

        // Compare with the centralized answer.
        let mut central_db = Instance::new();
        for k in 0..n - 1 {
            central_db.insert_fact(g, Tuple::from([Value::Int(k), Value::Int(k + 1)]));
        }
        let central = unchained_core::inflationary::eval(
            &parse_program("T(x,y) :- G(x,y). T(x,y) :- T(x,z), T(z,y).", &mut i).unwrap(),
            &central_db,
            EvalOptions::default(),
        )
        .unwrap();
        let expected = central.instance.relation(t).unwrap();
        for peer in ["even", "odd"] {
            let got = network.peer(peer).unwrap().database.relation(t).unwrap();
            assert!(got.same_tuples(expected), "peer {peer}");
        }
    }

    #[test]
    fn star_topology_aggregates_at_hub() {
        let mut i = Interner::new();
        let leaf_prog = parse_program("Report(x) :- Local(x).", &mut i).unwrap();
        let hub_prog = parse_program("All(x) :- Inbox(x).", &mut i).unwrap();
        let local = i.get("Local").unwrap();
        let report = i.get("Report").unwrap();
        let inbox = i.get("Inbox").unwrap();
        let all = i.get("All").unwrap();

        let mut network = Network::new();
        for (name, v) in [("leaf-a", 1i64), ("leaf-b", 2), ("leaf-c", 3)] {
            let mut db = Instance::new();
            db.insert_fact(local, Tuple::from([Value::Int(v)]));
            network
                .add_peer(Peer::new(name, leaf_prog.clone(), db).exporting(report, "hub", inbox));
        }
        network.add_peer(Peer::new("hub", hub_prog, Instance::new()));
        let report_stats = network.run_to_convergence(10).unwrap();
        let hub = network.peer("hub").unwrap();
        assert_eq!(hub.database.relation(all).unwrap().len(), 3);
        // Round 1 delivers the reports; round 2 absorbs them locally
        // and delivers nothing new → convergence.
        assert_eq!(report_stats.rounds, 2);
    }

    #[test]
    fn unknown_destination_rejected() {
        let mut i = Interner::new();
        let prog = parse_program("B(x) :- A(x).", &mut i).unwrap();
        let a = i.get("A").unwrap();
        let b = i.get("B").unwrap();
        let mut db = Instance::new();
        db.insert_fact(a, Tuple::from([Value::Int(1)]));
        let mut network = Network::new();
        network.add_peer(Peer::new("solo", prog, db).exporting(b, "ghost", a));
        assert!(matches!(
            network.run_to_convergence(10),
            Err(ExchangeError::UnknownPeer { .. })
        ));
    }

    #[test]
    fn round_limit_enforced() {
        // Two peers ping-ponging a growing relation would converge, but
        // with a budget of 1 round the deliveries are still pending.
        let mut i = Interner::new();
        let prog = parse_program("Out(x) :- In(x). Out(x) :- Seed(x).", &mut i).unwrap();
        let seed = i.get("Seed").unwrap();
        let out = i.get("Out").unwrap();
        let inn = i.get("In").unwrap();
        let mut db = Instance::new();
        db.insert_fact(seed, Tuple::from([Value::Int(1)]));
        let mut network = Network::new();
        network.add_peer(Peer::new("a", prog.clone(), db).exporting(out, "b", inn));
        network.add_peer(Peer::new("b", prog, Instance::new()).exporting(out, "a", inn));
        assert!(matches!(
            network.run_to_convergence(1),
            Err(ExchangeError::RoundLimitExceeded(1))
        ));
    }

    #[test]
    fn self_loop_export_is_idempotent() {
        // A peer exporting to itself reaches a fixpoint immediately
        // after the copy stabilizes.
        let mut i = Interner::new();
        let prog = parse_program("B(x) :- A(x).", &mut i).unwrap();
        let a = i.get("A").unwrap();
        let b = i.get("B").unwrap();
        let mut db = Instance::new();
        db.insert_fact(a, Tuple::from([Value::Int(1)]));
        let mut network = Network::new();
        network.add_peer(Peer::new("me", prog, db).exporting(b, "me", a));
        let report = network.run_to_convergence(10).unwrap();
        assert!(report.rounds <= 3);
        let me = network.peer("me").unwrap();
        assert_eq!(me.database.relation(b).unwrap().len(), 1);
    }

    #[test]
    fn global_view_unions_databases() {
        let mut i = Interner::new();
        let prog = parse_program("B(x) :- A(x).", &mut i).unwrap();
        let a = i.get("A").unwrap();
        let mut db1 = Instance::new();
        db1.insert_fact(a, Tuple::from([Value::Int(1)]));
        let mut db2 = Instance::new();
        db2.insert_fact(a, Tuple::from([Value::Int(2)]));
        let mut network = Network::new();
        network.add_peer(Peer::new("p1", prog.clone(), db1));
        network.add_peer(Peer::new("p2", prog, db2));
        let global = network.global_view();
        assert_eq!(global.relation(a).unwrap().len(), 2);
    }
}
