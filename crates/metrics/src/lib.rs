//! # fedhh-metrics — utility metrics for heavy hitter identification
//!
//! The paper evaluates with two metrics (Section 7.1):
//!
//! * the **F1 score**, the harmonic mean of precision and recall of the
//!   identified top-k set against the ground-truth top-k set, and
//! * the **Normalized Cumulative Rank (NCR)**, which weights each true
//!   heavy hitter by a quality `q(v) = k − rank(v)` so that missing the most
//!   frequent values is penalised more.
//!
//! Table 7 additionally reports the **average local recall**: the fraction
//! of the global ground truths that each party's *local* heavy hitters
//! recover, averaged over parties — the paper's proxy for how well a
//! mechanism handles statistical heterogeneity.
//!
//! The scenario-robustness matrix (`fedhh-bench scenario`) reports each
//! attacked cell alongside its [`mod@degradation`] from the benign baseline.

//!
//! This crate scores finished runs (it sits beside the pipeline, not in
//! it); the full system map lives in `ARCHITECTURE.md` at the
//! repository root.
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod degradation;
pub mod f1;
pub mod ncr;
pub mod recall;

pub use degradation::degradation;
pub use f1::{f1_score, precision, recall};
pub use ncr::ncr_score;
pub use recall::average_local_recall;
