//! Neural collaborative filtering in the federated setting — the
//! paper's *learnable interaction function* case.
//!
//! §III-B of the paper: "If Υ is learnable through a deep neural
//! network, Θ is the set of the parameters in the neural network", and
//! the shared parameters maintained by the server are then `V` **and**
//! `Θ` (Eqs. 5 and 7 add noise to and aggregate both). The MF experiments
//! of §V never exercise that branch; this crate builds it:
//!
//! * [`model::NcfModel`] — an NCF-style scorer
//!   `x̂ = w₂ · relu(W₁·[u; v] + b₁) + b₂` with hand-derived backprop
//!   (finite-difference-checked, like every other gradient in this
//!   repository);
//! * [`theta::Theta`] — the shared MLP parameters with the flat-vector
//!   algebra the federated update needs (clip, noise, aggregate);
//! * [`client_model::NcfClientModel`] — NCF plugged into the
//!   `fedrec_federated::ClientModel` seam (`Θ` as the flat shared block);
//! * [`sim::NcfSimulation`] — federated training that shares `V` and `Θ`
//!   while keeping each `u_i` private, routed through the generic
//!   `fedrec_federated::Simulation` round loop;
//! * [`attack`] — both attack variants §IV discusses: poisoning `V` only
//!   (the paper's generic choice, here driven through the NCF gradients)
//!   and poisoning `Θ` (the "possibly simpler and more effective" option
//!   the paper notes is *not* generic because MF has no Θ).
//!
//! # Example
//!
//! ```
//! use fedrec_data::synthetic::SyntheticConfig;
//! use fedrec_ncf::sim::{NcfConfig, NcfSimulation};
//! use fedrec_ncf::attack::NcfNoAttack;
//!
//! let data = SyntheticConfig::smoke().generate(1);
//! let cfg = NcfConfig { epochs: 2, ..NcfConfig::smoke() };
//! let mut sim = NcfSimulation::new(&data, cfg, Box::new(NcfNoAttack), 0);
//! let losses = sim.run();
//! assert_eq!(losses.len(), 2);
//! ```

#![warn(missing_docs)]

pub mod attack;
pub mod client_model;
pub mod model;
pub mod persist;
pub mod sim;
pub mod theta;

pub use client_model::{NcfAdversaryBridge, NcfClientModel};
pub use model::{ItemProjection, NcfModel};
pub use sim::{NcfConfig, NcfSimulation};
pub use theta::Theta;
