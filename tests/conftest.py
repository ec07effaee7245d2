import numpy as np
import pytest

from j6opt import (
    Family,
    GeneratorSpec,
    GradientSet,
    Perturbations,
    ProblemInstance,
    StrategyConfig,
    StrategyKind,
    WMode,
    forward,
    generate,
    init_perturbations,
    set_validation,
    zero_perturbations,
)


@pytest.fixture(autouse=True, scope="session")
def _validation_mode():
    """Every forward pass in the test suite runs with the internal
    zero-sum / bounds checks enabled."""
    set_validation(True)
    yield
    set_validation(False)


@pytest.fixture
def make_instance():
    """Factory for seeded random instances."""

    def _make(
        seed: int = 0,
        V: int = 6,
        d: int = 4,
        T: int = 2,
        w_mode: WMode = WMode.FULL_MATRIX,
        family: Family = Family.GAUSSIAN,
    ) -> ProblemInstance:
        return generate(
            GeneratorSpec(V=V, d=d, T=T, seed=seed, family=family, w_mode=w_mode)
        )

    return _make


@pytest.fixture
def make_point(make_instance):
    """Factory for (instance, nonzero perturbations) evaluation points."""

    def _make(seed: int = 0, w_mode: WMode = WMode.FULL_MATRIX, scale: float = 0.3, **kw):
        instance = make_instance(seed=seed, w_mode=w_mode, **kw)
        pert = init_perturbations(instance, init_scale=scale, seed=seed + 1)
        return instance, pert

    return _make


@pytest.fixture
def derived_instance():
    """The hand-checked single-row example used across modules:
    H=[[1,0]], W=[[1,0],[0,1],[1,1]], y=[0], h=[0.1,0.2], w=[0.3,0]."""
    instance = ProblemInstance(
        V=3,
        d=2,
        T=1,
        H=[[1.0, 0.0]],
        W=[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
        y=[0],
        w_mode=WMode.SINGLE_ROW,
        v_star=0,
    )
    pert = Perturbations([0.1, 0.2], [0.3, 0.0])
    return instance, pert


@pytest.fixture
def from_blocks():
    """Factory for the gradient set with given d-vector blocks, h =
    (J11, J21) and w = (J12, J22): a single-row point with T = d and
    A = T I whose logit gradients carry (J12, J22) in column v_star and
    zeros elsewhere, so that ``GradientSet.w`` returns them (bit for bit when
    T is a power of 2).  For score and step arithmetic, where only the
    blocks matter."""

    def _make(h, w):
        h, w = np.asarray(h, dtype=np.float64), np.asarray(w, dtype=np.float64)
        d = h.shape[1]
        instance = ProblemInstance(
            V=3, d=d, T=d, H=d * np.eye(d), W=np.eye(3, d), y=np.zeros(d, dtype=np.int64),
            w_mode=WMode.SINGLE_ROW, v_star=0,
        )
        g = np.zeros((2, d, 3))
        g[:, :, 0] = w
        return GradientSet(instance, forward(instance, zero_perturbations(instance)), g, h)

    return _make


@pytest.fixture
def diverging_run():
    """An instance and a configuration whose run diverges with every loss
    finite until the Grams of step 8 overflow, a fact that follows by hand.

    V = 2, d = 1, T = 1: x = H + h and the logits x (b, -b) with b = W + w,
    the target class 1.  From x = 2^56, b = 2^39 every step keeps the wrong
    class saturated, p = (1, 0) exactly, so the heat blocks are J11 = 2b
    and J12 = (x, -x).  Scalarized with lam (1, 0) steps both groups along
    them: x -= eta_h 2b, b -= eta_w x.  With eta_h = 2^73 and eta_w = 2^40
    each new term is 2^57 times the old one, so every value is a power of
    two: |x| = 2^(56 + 57 n) and |b| = 2^(39 + 57 n) before step n, signs
    alternating.  At step 8, |x| = 2^512: K = x^2 overflows while the
    logits, 2^1007, and the losses stay finite.
    """
    instance = ProblemInstance(V=2, d=1, T=1, H=[[2.0**56]], W=[[2.0**39], [-2.0**39]], y=[1])
    return instance, StrategyConfig(kind=StrategyKind.SCALARIZED, lam=(1.0, 0.0),
                                    eta_h=2.0**73, eta_w=2.0**40)
