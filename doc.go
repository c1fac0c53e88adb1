// Package repro is a from-scratch Go reproduction of
//
//	Zengfeng Huang, Xuemin Lin, Wenjie Zhang, Ying Zhang.
//	"Efficient Matrix Sketching over Distributed Data." PODS 2017.
//
// The library computes covariance sketches B of a row-partitioned matrix A
// (small matrices with ‖AᵀA − BᵀB‖₂ bounded) while minimizing the number of
// words communicated between servers and a coordinator, and applies them to
// distributed PCA and low-rank approximation.
//
// Packages (all under internal/):
//
//   - matrix, linalg    — dense linear algebra substrate (SVD, pivoted QR,
//     eigen)
//   - fd                — Frequent Directions streaming sketch (Theorem 1/2)
//   - core              — the paper's contribution: SVS sampling
//     (Algorithm 1, Theorems 4–6), Decomp (Lemma 6), the
//     sketch predicates; coordinated product sampling; the
//     squared-norm row-sampling baseline [10] (streaming
//     sampler and multinomial split)
//   - comm              — word/bit accounting, wire codec, §3.3 quantizer
//   - distributed       — server/coordinator protocols over channels or TCP,
//     the one implementation of every algorithm (FD merge,
//     SVS, adaptive §3.2, row sampling, PCA, product)
//   - pca               — distributed PCA (§4, Lemma 8, Theorem 9)
//   - lowerbound        — §2.1 lower-bound machinery and cost formulas
//   - monitoring        — continuous tracking in the [17] model (§1.5
//     open question), with SVS-compressed deltas
//   - workload          — synthetic matrix generators and partitioners
//   - bench             — the paper-reproduction harness: one table of
//     experiments (bench.Experiments) recording words, error and
//     certificates, never time; cmd/sketchbench prints it and
//     BenchmarkExperiments in bench_test.go runs it
//
// See DESIGN.md for the experiment index and EXPERIMENTS.md for
// paper-vs-measured results; the reference benchmark in benchmark/ is the
// one place that measures how fast anything runs.
package repro
