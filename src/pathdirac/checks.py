"""Structural and numerical identity checks over built complexes.

Each check returns a named pass/fail record with evidence; the CLI `check`
command prints them and exits nonzero if any fail. The same routines back
the randomized property tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rational as qa
from .chain import (
    ChainComplex,
    deletion_closure_complex,
    embed_paths,
    infimum_complex,
    omega2_generators_fast,
    supremum_complex,
)
from .graphs import Digraph, Hypergraph, h1_rank, walk_digraph
from .operators import (DEFAULT_DENSE_LIMIT, Operator, Spectrum, dirac, dirac_offsets,
                        down_laplacian, eigen_spectrum, float_rank, guard_size, laplacian)
from .persistence import StageComplexes, auxiliary_complex, persistent_laplacian


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def spectrum_symmetry_defect(spec: Spectrum) -> float:
    """Max distance between the spectrum and its negation (0 for Dirac spectra)."""
    if len(spec.values) == 0:
        return 0.0
    return float(np.max(np.abs(spec.values + spec.values[::-1])))


def check_dirac_identities(c: ChainComplex, laps: list[Operator]) -> list[CheckResult]:
    """Square, spectrum symmetry and nullity identity of each D_p, p < c.p_top.

    D_p^2 must match blockdiag(L_0, ..., L_p, Down_{p+1}) entrywise to 1e-10, L_i
    from `laps`. The exact nullity is the Betti-sum form by construction (see
    `dirac`), so the nullity line tests it against the float-rank form.
    """
    squares, symmetry, nullity = [], [], []
    for p in range(c.p_top):
        d = dirac(c, p)
        square = d.matrix @ d.matrix
        offsets = dirac_offsets(c, p)
        blocks = [lap.matrix for lap in laps[: p + 1]] + [down_laplacian(c, p + 1).matrix]
        expect = np.zeros_like(square)
        for k, blk in enumerate(blocks):
            expect[offsets[k]:offsets[k + 1], offsets[k]:offsets[k + 1]] = blk
        defect = float(np.max(np.abs(square - expect))) if square.size else 0.0
        exact = d.exact_nullity
        sym = spectrum_symmetry_defect(eigen_spectrum(d.matrix, exact))
        float_nullity = d.matrix.shape[0] - float_rank(d.matrix)
        squares.append(CheckResult(
            f"dirac-square-p{p}", defect <= 1e-10 and sym <= 1e-8,
            f"square defect {defect:.3e}, nullity {exact} vs {exact}, spectrum symmetry {sym:.3e}"))
        symmetry.append(CheckResult(f"dirac-spectrum-symmetry-p{p}", sym <= 1e-8,
                                    f"defect {sym:.3e}"))
        nullity.append(CheckResult(
            f"dirac-nullity-identity-p{p}", float_nullity == exact,
            f"exact {exact}, betti-sum form {exact}, float-rank form {float_nullity}"))
    return squares + symmetry + nullity


def check_exact_vs_float_ranks(c: ChainComplex, laps: list[Operator]) -> CheckResult:
    worst = 0
    for k in range(1, c.p_top + 1):
        exact = c.boundary_rank(k)
        numeric = float_rank(c.degrees[k].boundary_ortho)
        worst = max(worst, abs(exact - numeric))
    for lap in laps:
        exact_eta = lap.exact_nullity
        numeric_eta = lap.matrix.shape[0] - float_rank(lap.matrix)
        worst = max(worst, abs(exact_eta - numeric_eta))
    return CheckResult("exact-vs-float-rank", worst == 0, f"max rank disagreement {worst}")


def check_h1_formula(g: Digraph, c: ChainComplex) -> CheckResult:
    """Closed-form degree-1 rank of walk digraph g against the rank-nullity Betti number.

    Omega_1 is spanned by the edges, so betti_1 = |E| - rank d_1 - rank d_2 and
    this judges the exact rank d_1 against |V| - |C| from union-find.
    """
    formula = h1_rank(g, c.boundary_rank(2))
    betti1 = c.betti(1)
    return CheckResult("h1-closed-form", formula == betti1, f"formula {formula}, betti {betti1}")


def check_embedded_homology(ambient: ChainComplex, submods: list[qa.QMatrix],
                            inf: ChainComplex) -> CheckResult:
    """Infimum and supremum subcomplexes of the anchor spans agree in homology."""
    bi = inf.betti_vector()
    bs = supremum_complex(ambient, submods).betti_vector()
    return CheckResult("embedded-homology", bi == bs, f"infimum {bi}, supremum {bs}")


def check_omega_against_infimum(c: ChainComplex, submods: list[qa.QMatrix],
                                inf: ChainComplex) -> CheckResult:
    """Kernel-method invariant spaces match the generic infimum construction."""
    for k in range(c.p_top + 1):
        if not qa.spans_equal(submods[k] @ c.degrees[k].omega, inf.degrees[k].omega):
            return CheckResult("omega-vs-infimum", False, f"span mismatch at degree {k}")
    return CheckResult("omega-vs-infimum", True, "identical spans at every degree")


def check_degree2_fast_path(g: Digraph, c: ChainComplex) -> CheckResult:
    """Triangle/square generators of walk digraph g span the kernel-method degree-2 space."""
    fast = omega2_generators_fast(g, c.degrees[2].paths)
    ok = qa.spans_equal(fast, c.degrees[2].omega)
    return CheckResult("degree2-fast-path", ok, f"fast dim {qa.rank(fast)}, kernel dim {c.dim(2)}")


def graph_check_suite(graph: Digraph | Hypergraph, c: ChainComplex) -> list[CheckResult]:
    guard_size(dirac_offsets(c, c.p_top - 1)[-1], DEFAULT_DENSE_LIMIT)  # largest Dirac first
    g = walk_digraph(graph)
    # The anchor spans inside their deletion closure, and the largest subcomplex
    # they contain, back both the omega and the embedded-homology checks.
    paths = [d.paths for d in c.degrees]
    ambient = deletion_closure_complex(paths)
    submods = [embed_paths(ps, ambient.degrees[k].paths) for k, ps in enumerate(paths)]
    inf = infimum_complex(ambient, submods)
    laps = [laplacian(c, i) for i in range(c.p_top)]  # shared by the square and rank checks
    # ∂∂ = 0 is not recomputed: `build_complex` raises a StructuralError (exit 4)
    # on a nonzero composition, so c satisfies it.
    results = [CheckResult("boundary-composition-zero", True, "exact at all degrees")]
    results.extend(check_dirac_identities(c, laps))
    results.append(check_exact_vs_float_ranks(c, laps))
    if c.p_top >= 2:  # the closed form and the fast path read degree 2
        results.append(check_h1_formula(g, c))
    results.append(check_omega_against_infimum(c, submods, inf))
    if c.p_top >= 2:
        results.append(check_degree2_fast_path(g, c))
    results.append(check_embedded_homology(ambient, submods, inf))
    return results


def pair_beta0(stage_a: Digraph | Hypergraph, stage_b: Digraph | Hypergraph) -> int:
    """beta_0 of the auxiliary complex: |V(b) minus V(a)| plus the components of
    stage b's walk digraph that contain a stage-a vertex."""
    va = set(stage_a.vertices)
    comps = walk_digraph(stage_b).components()
    return len(set(stage_b.vertices) - va) + sum(1 for comp in comps if comp & va)


def filtration_check_suite(stages: StageComplexes, p: int = 1) -> list[CheckResult]:
    """Per-pair persistence identities: reduction, containment, monotone kernels."""
    results: list[CheckResult] = []
    n_stages = len(stages)
    for a in range(1, n_stages + 1):
        for b in range(a, n_stages + 1):
            aux = auxiliary_complex(stages, a, b)
            tag = f"({a},{b})"
            d = dirac(aux, p)
            spec = eigen_spectrum(d.matrix, d.exact_nullity)
            exact, zeros = d.exact_nullity, spec.zero_count()
            float_nullity = d.matrix.shape[0] - float_rank(d.matrix)
            results.append(
                CheckResult(
                    f"persistent-nullity{tag}",
                    zeros == exact and float_nullity == exact,
                    f"exact {exact}, zeros {zeros}, float {float_nullity}",
                )
            )
            if a == b:  # the pair complex is stage b's own, so its Dirac matrix is too
                d_ord = dirac(stages.stage(b), p)
                s1 = spec.values
                s2 = (s1 if np.array_equal(d.matrix, d_ord.matrix)
                      else eigen_spectrum(d_ord.matrix, d_ord.exact_nullity).values)
                same = s1.shape == s2.shape
                defect = float(np.max(np.abs(s1 - s2))) if same and len(s1) else 0.0
                results.append(CheckResult(
                    f"a-eq-b-reduction{tag}", same and defect <= 1e-8,
                    f"spectrum defect {defect:.3e}" if same else
                    f"spectrum sizes {len(s1)} and {len(s2)}"))
            for n in range(p + 1):
                pers = persistent_laplacian(stages.stage(a), aux, n)
                eta_a = stages.stage(a).betti(n)
                eta_pers = pers.exact_nullity
                eta_c = aux.betti(n)
                # the kernel of the matrix has the dimension of the persistent Betti number
                eta_float = pers.matrix.shape[0] - float_rank(pers.matrix)
                ok = eta_a >= eta_pers and eta_c >= eta_pers and eta_float == eta_pers
                detail = f"stage-a {eta_a} >= persistent {eta_pers} <= auxiliary {eta_c}"
                if eta_float != eta_pers:
                    detail += f", float {eta_float}"
                results.append(CheckResult(f"monotone-nullity-n{n}{tag}", ok, detail))
            beta0_aux = aux.betti(0)
            beta0_m = stages.stage(b).betti(0)
            graphs = stages.filtration.stages
            results.append(
                CheckResult(
                    f"beta0-pair{tag}",
                    beta0_aux == pair_beta0(graphs[a - 1], graphs[b - 1]),
                    f"auxiliary {beta0_aux}, stage-m {beta0_m}",
                )
            )
    return results
