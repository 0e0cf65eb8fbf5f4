//! Exact branch-and-bound for assignment-structured integer programs.
//!
//! The per-partition layer-assignment ILP of the paper (formulation (4))
//! has a fixed shape: every *item* (segment) picks exactly one *choice*
//! (layer); costs are linear per choice plus pairwise between via-connected
//! items; hard capacity groups bound how many members may be picked
//! (edge capacities, constraint (4c)); soft groups charge a penalty per
//! overflow unit (via capacities with the paper's `V_o`/α relaxation).
//!
//! [`ChoiceProblem::solve`] runs depth-first branch-and-bound with an
//! admissible lower bound and a node budget, making it *anytime*: on
//! budget exhaustion it returns the incumbent with `optimal == false` —
//! exactly the "ILP cannot finish on large cases" behaviour the paper
//! reports for GUROBI (Fig. 7(c)). This solver is the GUROBI substitution
//! (see `DESIGN.md` §2).

/// Pairwise cost table between two items: `costs[ca][cb]` is charged when
/// item `a` takes choice `ca` and item `b` takes choice `cb`.
#[derive(Clone, PartialEq, Debug)]
pub struct PairCost {
    /// First item index.
    pub a: usize,
    /// Second item index.
    pub b: usize,
    /// Cost per choice combination, `costs[choice_of_a][choice_of_b]`.
    pub costs: Vec<Vec<f64>>,
}

/// A hard capacity constraint: at most `limit` of `members` may be
/// selected.
#[derive(Clone, PartialEq, Debug)]
pub struct CapacityGroup {
    /// `(item, choice)` pairs counted against the limit.
    pub members: Vec<(usize, usize)>,
    /// Maximum number of selected members.
    pub limit: u32,
}

/// A soft capacity constraint: each selected member beyond `limit` costs
/// `penalty`.
#[derive(Clone, PartialEq, Debug)]
pub struct SoftGroup {
    /// `(item, choice)` pairs counted against the limit.
    pub members: Vec<(usize, usize)>,
    /// Free allowance.
    pub limit: u32,
    /// Cost per overflow unit (the paper's α = 2000 weighting).
    pub penalty: f64,
}

/// An assignment-structured integer program.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct ChoiceProblem {
    linear: Vec<Vec<f64>>,
    pairs: Vec<PairCost>,
    cap_groups: Vec<CapacityGroup>,
    soft_groups: Vec<SoftGroup>,
}

/// Solution returned by [`ChoiceProblem::solve`].
#[derive(Clone, PartialEq, Debug)]
pub struct IlpSolution {
    /// Selected choice per item.
    pub choices: Vec<usize>,
    /// Total cost (linear + pairwise + soft penalties).
    pub objective: f64,
    /// Whether the search space was exhausted (solution proven optimal).
    pub optimal: bool,
    /// Branch-and-bound nodes expanded.
    pub nodes: u64,
}

impl ChoiceProblem {
    /// Creates an empty problem.
    pub fn new() -> ChoiceProblem {
        ChoiceProblem::default()
    }

    /// Adds an item with the given per-choice linear costs; returns its
    /// index. All costs must be non-negative (required for the bound to
    /// be admissible).
    ///
    /// # Panics
    ///
    /// Panics if `costs` is empty or contains a negative/NaN cost.
    pub fn add_item(&mut self, costs: Vec<f64>) -> usize {
        assert!(!costs.is_empty(), "item needs at least one choice");
        assert!(
            costs.iter().all(|c| c.is_finite() && *c >= 0.0),
            "costs must be non-negative and finite"
        );
        self.linear.push(costs);
        self.linear.len() - 1
    }

    /// Adds a pairwise cost table.
    ///
    /// # Panics
    ///
    /// Panics if the items do not exist, `a == b`, the table shape does
    /// not match the items' choice counts, or a cost is negative/NaN.
    pub fn add_pair(&mut self, pair: PairCost) {
        assert!(pair.a != pair.b, "pair must join distinct items");
        assert!(pair.a < self.linear.len() && pair.b < self.linear.len());
        assert_eq!(pair.costs.len(), self.linear[pair.a].len());
        for row in &pair.costs {
            assert_eq!(row.len(), self.linear[pair.b].len());
            assert!(row.iter().all(|c| c.is_finite() && *c >= 0.0));
        }
        self.pairs.push(pair);
    }

    /// Adds a hard capacity group.
    ///
    /// # Panics
    ///
    /// Panics if a member references a nonexistent item or choice.
    pub fn add_capacity_group(&mut self, group: CapacityGroup) {
        for &(i, c) in &group.members {
            assert!(i < self.linear.len() && c < self.linear[i].len());
        }
        self.cap_groups.push(group);
    }

    /// Adds a soft (penalized) capacity group.
    ///
    /// # Panics
    ///
    /// Panics if a member references a nonexistent item or choice, or the
    /// penalty is negative/NaN.
    pub fn add_soft_group(&mut self, group: SoftGroup) {
        for &(i, c) in &group.members {
            assert!(i < self.linear.len() && c < self.linear[i].len());
        }
        assert!(group.penalty.is_finite() && group.penalty >= 0.0);
        self.soft_groups.push(group);
    }

    /// Number of items.
    pub fn num_items(&self) -> usize {
        self.linear.len()
    }

    /// Number of choices of item `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn num_choices(&self, i: usize) -> usize {
        self.linear[i].len()
    }

    /// The hard capacity groups, in the order they were added.
    pub fn capacity_groups(&self) -> &[CapacityGroup] {
        &self.cap_groups
    }

    /// Evaluates a complete assignment: total cost, or `None` if a hard
    /// capacity group is violated.
    ///
    /// # Panics
    ///
    /// Panics if `choices` has the wrong length or a choice is out of
    /// range.
    pub fn evaluate(&self, choices: &[usize]) -> Option<f64> {
        assert_eq!(choices.len(), self.linear.len());
        let mut cost = 0.0;
        for (i, &c) in choices.iter().enumerate() {
            cost += self.linear[i][c];
        }
        for p in &self.pairs {
            cost += p.costs[choices[p.a]][choices[p.b]];
        }
        for g in &self.cap_groups {
            let used = g.members.iter().filter(|&&(i, c)| choices[i] == c).count() as u32;
            if used > g.limit {
                return None;
            }
        }
        for g in &self.soft_groups {
            let used = g.members.iter().filter(|&&(i, c)| choices[i] == c).count() as u32;
            cost += g.penalty * used.saturating_sub(g.limit) as f64;
        }
        Some(cost)
    }

    /// [`ChoiceProblem::solve`] returning a typed error instead of
    /// `None`, for callers that treat an empty search as a failure.
    ///
    /// # Errors
    ///
    /// Returns [`crate::SolveError::BudgetExhausted`] when no
    /// hard-feasible assignment was found within `node_budget` nodes.
    pub fn try_solve(&self, node_budget: u64) -> Result<IlpSolution, crate::SolveError> {
        self.solve(node_budget)
            .ok_or(crate::SolveError::BudgetExhausted {
                budget: node_budget,
            })
    }

    /// Solves by branch-and-bound.
    ///
    /// Returns `None` when no hard-feasible assignment exists (within the
    /// explored space). `node_budget` caps the number of search nodes;
    /// when it is hit, the best incumbent found so far is returned with
    /// `optimal == false`.
    pub fn solve(&self, node_budget: u64) -> Option<IlpSolution> {
        let n = self.linear.len();
        if n == 0 {
            return Some(IlpSolution {
                choices: Vec::new(),
                objective: 0.0,
                optimal: true,
                nodes: 0,
            });
        }

        // Item order: decreasing cost spread (decide contentious items
        // early so pruning bites sooner).
        let mut order: Vec<usize> = (0..n).collect();
        let spread = |i: usize| -> f64 {
            let mn = self.linear[i].iter().cloned().fold(f64::INFINITY, f64::min);
            let mx = self.linear[i].iter().cloned().fold(0.0f64, f64::max);
            mx - mn
        };
        order.sort_by(|&a, &b| spread(b).total_cmp(&spread(a)));

        // Admissible completion bound: Σ min linear of unassigned items
        // (pair costs and soft penalties are ≥ 0 and ignored).
        let min_lin: Vec<f64> = (0..n)
            .map(|i| self.linear[i].iter().cloned().fold(f64::INFINITY, f64::min))
            .collect();
        let mut suffix_bound = vec![0.0; n + 1];
        for d in (0..n).rev() {
            suffix_bound[d] = suffix_bound[d + 1] + min_lin[order[d]];
        }

        // Per (item, choice): hard/soft group memberships.
        let key = |i: usize, c: usize| (i, c);
        use std::collections::HashMap;
        let mut hard_of: HashMap<(usize, usize), Vec<usize>> = HashMap::new();
        for (gi, g) in self.cap_groups.iter().enumerate() {
            for &(i, c) in &g.members {
                hard_of.entry(key(i, c)).or_default().push(gi);
            }
        }
        let mut soft_of: HashMap<(usize, usize), Vec<usize>> = HashMap::new();
        for (gi, g) in self.soft_groups.iter().enumerate() {
            for &(i, c) in &g.members {
                soft_of.entry(key(i, c)).or_default().push(gi);
            }
        }
        // Pairs indexed by item for incremental cost.
        let mut pairs_of: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (pi, p) in self.pairs.iter().enumerate() {
            pairs_of[p.a].push(pi);
            pairs_of[p.b].push(pi);
        }

        struct Search<'a> {
            problem: &'a ChoiceProblem,
            order: &'a [usize],
            suffix_bound: &'a [f64],
            hard_of: &'a HashMap<(usize, usize), Vec<usize>>,
            soft_of: &'a HashMap<(usize, usize), Vec<usize>>,
            pairs_of: &'a [Vec<usize>],
            hard_usage: Vec<u32>,
            soft_usage: Vec<u32>,
            assigned: Vec<Option<usize>>,
            best: Option<(f64, Vec<usize>)>,
            nodes: u64,
            budget: u64,
        }

        impl Search<'_> {
            /// Incremental cost of assigning `choice` to `item` given the
            /// current partial assignment, or `None` if hard-infeasible.
            fn step_cost(&self, item: usize, choice: usize) -> Option<f64> {
                if let Some(groups) = self.hard_of.get(&(item, choice)) {
                    for &g in groups {
                        if self.hard_usage[g] >= self.problem.cap_groups[g].limit {
                            return None;
                        }
                    }
                }
                let mut cost = self.problem.linear[item][choice];
                for &pi in &self.pairs_of[item] {
                    let p = &self.problem.pairs[pi];
                    let (other, my_is_a) = if p.a == item {
                        (p.b, true)
                    } else {
                        (p.a, false)
                    };
                    if let Some(oc) = self.assigned[other] {
                        cost += if my_is_a {
                            p.costs[choice][oc]
                        } else {
                            p.costs[oc][choice]
                        };
                    }
                }
                if let Some(groups) = self.soft_of.get(&(item, choice)) {
                    for &g in groups {
                        if self.soft_usage[g] >= self.problem.soft_groups[g].limit {
                            cost += self.problem.soft_groups[g].penalty;
                        }
                    }
                }
                Some(cost)
            }

            /// Seeds `best` with a greedy dive (cheapest feasible choice
            /// at each depth) so even a budget of 1 returns a complete
            /// assignment when one is greedily reachable.
            fn greedy_seed(&mut self) {
                let mut acc = 0.0;
                let order: Vec<usize> = self.order.to_vec();
                for &item in &order {
                    let best_choice = (0..self.problem.linear[item].len())
                        .filter_map(|c| self.step_cost(item, c).map(|k| (k, c)))
                        .min_by(|a, b| a.0.total_cmp(&b.0));
                    let Some((step, choice)) = best_choice else {
                        // Greedy dead end: roll back and bail out.
                        for &it in &order {
                            if let Some(c) = self.assigned[it].take() {
                                if let Some(gs) = self.hard_of.get(&(it, c)) {
                                    for &g in gs {
                                        self.hard_usage[g] -= 1;
                                    }
                                }
                                if let Some(gs) = self.soft_of.get(&(it, c)) {
                                    for &g in gs {
                                        self.soft_usage[g] -= 1;
                                    }
                                }
                            }
                        }
                        return;
                    };
                    acc += step;
                    self.assigned[item] = Some(choice);
                    if let Some(gs) = self.hard_of.get(&(item, choice)) {
                        for &g in gs {
                            self.hard_usage[g] += 1;
                        }
                    }
                    if let Some(gs) = self.soft_of.get(&(item, choice)) {
                        for &g in gs {
                            self.soft_usage[g] += 1;
                        }
                    }
                }
                #[expect(
                    clippy::unwrap_used,
                    reason = "the greedy pass above assigned every item"
                )]
                let choices: Vec<usize> = self.assigned.iter().map(|c| c.unwrap()).collect();
                self.best = Some((acc, choices));
                // Roll back state for the exact search.
                for &it in &order {
                    #[expect(
                        clippy::unwrap_used,
                        reason = "the greedy pass assigned every item in `order`; take() restores \
                                  the pre-search state"
                    )]
                    let c = self.assigned[it].take().unwrap();
                    if let Some(gs) = self.hard_of.get(&(it, c)) {
                        for &g in gs {
                            self.hard_usage[g] -= 1;
                        }
                    }
                    if let Some(gs) = self.soft_of.get(&(it, c)) {
                        for &g in gs {
                            self.soft_usage[g] -= 1;
                        }
                    }
                }
            }

            fn dfs(&mut self, depth: usize, acc: f64) {
                if self.nodes >= self.budget {
                    return;
                }
                self.nodes += 1;
                if depth == self.order.len() {
                    #[expect(
                        clippy::unwrap_used,
                        reason = "at full depth every item holds a choice"
                    )]
                    let choices: Vec<usize> = self.assigned.iter().map(|c| c.unwrap()).collect();
                    if self.best.as_ref().map(|(b, _)| acc < *b).unwrap_or(true) {
                        self.best = Some((acc, choices));
                    }
                    return;
                }
                if let Some((b, _)) = &self.best {
                    if acc + self.suffix_bound[depth] >= *b {
                        return; // prune
                    }
                }
                let item = self.order[depth];
                // Expand choices cheapest-first.
                let mut options: Vec<(f64, usize)> = (0..self.problem.linear[item].len())
                    .filter_map(|c| self.step_cost(item, c).map(|k| (k, c)))
                    .collect();
                options.sort_by(|a, b| a.0.total_cmp(&b.0));
                for (step, choice) in options {
                    if let Some((b, _)) = &self.best {
                        // `step` covers this item's contribution, the
                        // suffix bound covers everything below. Options
                        // are sorted by ascending step cost, so once one
                        // fails the bound every later one does too.
                        if acc + step + self.suffix_bound[depth + 1] >= *b {
                            break;
                        }
                    }
                    self.assigned[item] = Some(choice);
                    if let Some(gs) = self.hard_of.get(&(item, choice)) {
                        for &g in gs {
                            self.hard_usage[g] += 1;
                        }
                    }
                    if let Some(gs) = self.soft_of.get(&(item, choice)) {
                        for &g in gs {
                            self.soft_usage[g] += 1;
                        }
                    }
                    self.dfs(depth + 1, acc + step);
                    if let Some(gs) = self.hard_of.get(&(item, choice)) {
                        for &g in gs {
                            self.hard_usage[g] -= 1;
                        }
                    }
                    if let Some(gs) = self.soft_of.get(&(item, choice)) {
                        for &g in gs {
                            self.soft_usage[g] -= 1;
                        }
                    }
                    self.assigned[item] = None;
                    if self.nodes >= self.budget {
                        return;
                    }
                }
            }
        }

        let mut search = Search {
            problem: self,
            order: &order,
            suffix_bound: &suffix_bound,
            hard_of: &hard_of,
            soft_of: &soft_of,
            pairs_of: &pairs_of,
            hard_usage: vec![0; self.cap_groups.len()],
            soft_usage: vec![0; self.soft_groups.len()],
            assigned: vec![None; n],
            best: None,
            nodes: 0,
            budget: node_budget.max(1),
        };
        search.greedy_seed();
        search.dfs(0, 0.0);
        let nodes = search.nodes;
        let exhausted = nodes < search.budget;
        search.best.map(|(objective, choices)| IlpSolution {
            choices,
            objective,
            optimal: exhausted,
            nodes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picks_cheapest_choices_without_constraints() {
        let mut p = ChoiceProblem::new();
        p.add_item(vec![3.0, 1.0, 2.0]);
        p.add_item(vec![0.5, 4.0]);
        let s = p.solve(1_000).unwrap();
        assert_eq!(s.choices, vec![1, 0]);
        assert!((s.objective - 1.5).abs() < 1e-12);
        assert!(s.optimal);
    }

    #[test]
    fn pair_cost_changes_the_optimum() {
        let mut p = ChoiceProblem::new();
        p.add_item(vec![1.0, 1.2]);
        p.add_item(vec![1.0, 1.2]);
        // Heavy cost when both pick choice 0.
        p.add_pair(PairCost {
            a: 0,
            b: 1,
            costs: vec![vec![10.0, 0.0], vec![0.0, 0.0]],
        });
        let s = p.solve(10_000).unwrap();
        let obj = p.evaluate(&s.choices).unwrap();
        assert!((obj - s.objective).abs() < 1e-9);
        assert_ne!(s.choices, vec![0, 0]);
        assert!((s.objective - 2.2).abs() < 1e-9);
    }

    #[test]
    fn hard_capacity_forces_spill() {
        let mut p = ChoiceProblem::new();
        for _ in 0..3 {
            p.add_item(vec![1.0, 5.0]);
        }
        // Only 2 items may take the cheap choice 0.
        p.add_capacity_group(CapacityGroup {
            members: vec![(0, 0), (1, 0), (2, 0)],
            limit: 2,
        });
        let s = p.solve(100_000).unwrap();
        let on_cheap = s.choices.iter().filter(|&&c| c == 0).count();
        assert_eq!(on_cheap, 2);
        assert!((s.objective - (1.0 + 1.0 + 5.0)).abs() < 1e-9);
    }

    #[test]
    fn infeasible_returns_none() {
        let mut p = ChoiceProblem::new();
        p.add_item(vec![1.0]);
        p.add_item(vec![1.0]);
        p.add_capacity_group(CapacityGroup {
            members: vec![(0, 0), (1, 0)],
            limit: 1,
        });
        assert!(p.solve(1_000).is_none());
    }

    #[test]
    fn soft_group_charges_overflow() {
        let mut p = ChoiceProblem::new();
        p.add_item(vec![0.0, 100.0]);
        p.add_item(vec![0.0, 100.0]);
        p.add_soft_group(SoftGroup {
            members: vec![(0, 0), (1, 0)],
            limit: 1,
            penalty: 7.0,
        });
        let s = p.solve(10_000).unwrap();
        // Cheaper to overflow (7) than to move a segment (100).
        assert_eq!(s.choices, vec![0, 0]);
        assert!((s.objective - 7.0).abs() < 1e-9);
        // With a brutal penalty the optimum flips.
        let mut p2 = p.clone();
        p2.soft_groups[0].penalty = 2000.0;
        let s2 = p2.solve(10_000).unwrap();
        assert_eq!(s2.choices.iter().filter(|&&c| c == 0).count(), 1, "{s2:?}");
    }

    #[test]
    fn budget_exhaustion_is_anytime() {
        // A hard capacity group keeps the completion bound loose, so the
        // search cannot prove optimality in 5 nodes — yet the greedy seed
        // must still yield a complete feasible assignment.
        let mut p = ChoiceProblem::new();
        for _ in 0..12 {
            p.add_item(vec![1.0, 1.01, 1.02, 1.03]);
        }
        p.add_capacity_group(CapacityGroup {
            members: (0..12).map(|i| (i, 0)).collect(),
            limit: 1,
        });
        let s = p.solve(5).unwrap();
        assert!(!s.optimal);
        assert_eq!(s.choices.len(), 12);
        assert!(p.evaluate(&s.choices).is_some());
    }

    #[test]
    fn greedy_optimum_is_proven_by_bound_within_tiny_budget() {
        // Without constraints the greedy dive already finds the optimum
        // and the admissible bound certifies it at the root node.
        let mut p = ChoiceProblem::new();
        for _ in 0..12 {
            p.add_item(vec![1.0, 1.01, 1.02, 1.03]);
        }
        let s = p.solve(5).unwrap();
        assert!(s.optimal);
        assert!((s.objective - 12.0).abs() < 1e-9);
    }

    #[test]
    fn empty_problem_is_trivially_optimal() {
        let p = ChoiceProblem::new();
        let s = p.solve(10).unwrap();
        assert!(s.optimal);
        assert!(s.choices.is_empty());
    }

    /// Brute-force reference.
    fn brute(p: &ChoiceProblem) -> Option<(f64, Vec<usize>)> {
        let n = p.num_items();
        let mut best: Option<(f64, Vec<usize>)> = None;
        let mut choices = vec![0usize; n];
        loop {
            if let Some(cost) = p.evaluate(&choices) {
                if best.as_ref().map(|(b, _)| cost < *b).unwrap_or(true) {
                    best = Some((cost, choices.clone()));
                }
            }
            // Odometer increment.
            let mut i = 0;
            loop {
                if i == n {
                    return best;
                }
                choices[i] += 1;
                if choices[i] < p.num_choices(i) {
                    break;
                }
                choices[i] = 0;
                i += 1;
            }
        }
    }

    /// Deterministic seed sweep; the off-by-default `proptest` feature
    /// widens it.
    #[test]
    fn matches_brute_force() {
        let cases = if cfg!(feature = "proptest") { 512 } else { 64 };
        let mut picker = prng::Rng::seed_from_u64(0x11b);
        for _ in 0..cases {
            check_matches_brute_force(picker.range_u64(0, 9_999));
        }
    }

    fn check_matches_brute_force(seed: u64) {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(3);
        let mut next = |m: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % m
        };
        let n = 2 + (next(4) as usize); // 2..=5 items
        let mut p = ChoiceProblem::new();
        let mut n_choices = Vec::new();
        for _ in 0..n {
            let k = 2 + next(3) as usize;
            n_choices.push(k);
            p.add_item((0..k).map(|_| next(100) as f64 / 10.0).collect());
        }
        // One random pair.
        if n >= 2 {
            let a = next(n as u64) as usize;
            let mut b = next(n as u64) as usize;
            if b == a {
                b = (a + 1) % n;
            }
            let costs = (0..n_choices[a])
                .map(|_| (0..n_choices[b]).map(|_| next(50) as f64 / 10.0).collect())
                .collect();
            p.add_pair(PairCost { a, b, costs });
        }
        // One random hard group over choice 0 of each item.
        p.add_capacity_group(CapacityGroup {
            members: (0..n).map(|i| (i, 0)).collect(),
            limit: 1 + next(2) as u32,
        });
        // One soft group over choice 1.
        p.add_soft_group(SoftGroup {
            members: (0..n).map(|i| (i, 1)).collect(),
            limit: 1,
            penalty: next(30) as f64 / 3.0,
        });

        let bb = p.solve(1_000_000);
        let bf = brute(&p);
        match (bb, bf) {
            (None, None) => {}
            (Some(s), Some((cost, _))) => {
                assert!(s.optimal);
                assert!(
                    (s.objective - cost).abs() < 1e-9,
                    "bb {} vs brute {}",
                    s.objective,
                    cost
                );
                let eval = p.evaluate(&s.choices).unwrap();
                assert!((eval - s.objective).abs() < 1e-9);
            }
            (a, b) => panic!("feasibility mismatch {a:?} vs {b:?}"),
        }
    }
}
