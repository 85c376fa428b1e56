//! The experiment registry: one function per table (T1–T15 and the
//! companions T3b–T6b), figure (F1–F6) and ablation (A2–A5). Ids follow
//! DESIGN.md's experiment index.

pub mod ablations;
pub mod figures;
pub mod tables;

use crate::Effort;

/// All experiment ids in canonical order.
pub const ALL: &[&str] = &[
    "t1", "t2", "t3", "t3b", "t4", "t4b", "t5", "t5b", "t6", "t6b", "t7", "t8", "t9", "t10", "t11",
    "t12", "t13", "t14", "t15", "f1", "f2", "f3", "f4", "f5", "f6", "a2", "a3", "a4", "a5",
];

/// Run one experiment by id. Returns false for unknown ids.
pub fn run(id: &str, effort: Effort) -> bool {
    match id {
        "t1" => tables::t1_sequential_lattice_cost(effort),
        "t2" => tables::t2_parallel_lattice(effort),
        "t3" => tables::t3_sequential_mc_cost(effort),
        "t3b" => tables::t3b_batched_kernel_throughput(effort),
        "t4" => tables::t4_accuracy_vs_closed_forms(effort),
        "t4b" => tables::t4b_lattice_kernel_throughput(effort),
        "t5" => tables::t5_method_comparison(effort),
        "t5b" => tables::t5b_pde_kernel_throughput(effort),
        "t6" => tables::t6_communication_overhead(effort),
        "t6b" => tables::t6b_fault_tolerance(effort),
        "t7" => tables::t7_lsmc_american(effort),
        "t8" => tables::t8_greeks(effort),
        "t9" => tables::t9_barriers_and_pde_scaling(effort),
        "t10" => tables::t10_portfolio_batch(effort),
        "t11" => tables::t11_serve(effort),
        "t12" => tables::t12_tick_repricing(effort),
        "t13" => tables::t13_stencil_throughput(effort),
        "t14" => tables::t14_resilience(effort),
        "t15" => tables::t15_cluster_scale(effort),
        "f1" => figures::f1_lattice_speedup(effort),
        "f2" => figures::f2_lattice_efficiency(effort),
        "f3" => figures::f3_mc_speedup(effort),
        "f4" => figures::f4_convergence(effort),
        "f5" => figures::f5_weak_scaling(effort),
        "f6" => figures::f6_isoefficiency(effort),
        "a2" => ablations::a2_decomposition(effort),
        "a3" => ablations::a3_variance_reduction(effort),
        "a4" => ablations::a4_machine_parameters(effort),
        "a5" => ablations::a5_lsmc_basis(effort),
        _ => return false,
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_id_is_rejected() {
        assert!(!run("zz", Effort::Quick));
    }

    #[test]
    fn registry_covers_design_doc() {
        assert_eq!(ALL.len(), 29);
        assert!(
            ALL.contains(&"t1")
                && ALL.contains(&"t6b")
                && ALL.contains(&"t14")
                && ALL.contains(&"t15")
                && ALL.contains(&"a4")
        );
    }
}
