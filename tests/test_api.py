import inspect

import pytest

import fidlab

PUBLIC = [
    "Certificate", "KrausChannel", "M0Frame", "OperatorPair", "Povm", "QubitDualPoint",
    "ReverseTest", "Spectrum", "adjoint", "apply", "block_psd", "classical_fidelity",
    "composed_lyapunov_spectrum", "convertibility_necessary", "discriminant_D",
    "dual_optimizers", "duality_certificate", "f1", "f2", "fidelity", "fidelity_half",
    "fidelity_max", "fidelity_min", "frame_from_operator", "lyapunov_solve",
    "m0_extreme_points", "m0_membership", "measurement_channel", "mfmax_membership",
    "mfmin_qubit_membership", "optimal_measurement", "optimal_reverse_test", "optimal_twist",
    "pinch", "pinv", "polar", "polar_classical", "polar_half", "polar_max", "polar_max_qubit",
    "polar_membership", "polar_min", "polar_min_qubit", "positive_fixed_point",
    "povm_lower_bound", "preparation_channel", "psd_sqrt", "random_cptp", "random_povm",
    "schur_reduce", "spectrum", "support_projector", "unique_root_w", "w2_min_oracle",
]


def test_public_api_is_pinned():
    assert fidlab.__all__ == PUBLIC
    for name in PUBLIC:
        exec(f"from fidlab import {name}", {})
    # the d^2 x d^2 matrix form of S_Z and its vectorization helpers are retired
    for module, name in (("fidlab", "SuperOperator"), ("fidlab", "lyapunov_superop"),
                         ("fidlab.superop", "vec"), ("fidlab.superop", "unvec"),
                         ("fidlab.superop", "lyapunov_superop")):
        with pytest.raises(ImportError):
            exec(f"from {module} import {name}", {})


# the public two-operand functions, with their parameters and defaults
SIGNATURES = {
    "fidelity_max": "(X, Y)", "fidelity_min": "(X, Y)", "fidelity_half": "(X, Y)",
    "fidelity": "(kind, X, Y)", "dual_optimizers": "(kind, X, Y)",
    "duality_certificate": "(kind, X, Y)", "optimal_measurement": "(X, Y)",
    "optimal_reverse_test": "(X, Y)", "optimal_twist": "(X, Y)", "schur_reduce": "(X, Y)",
    "polar_max": "(L0, L1)", "polar_min": "(L0, L1)", "polar_half": "(L0, L1)",
    "polar": "(kind, L0, L1)", "polar_membership": "(kind, L0, L1)",
    "povm_lower_bound": "(L0, L1)", "mfmax_membership": "(L0, L1)",
    "mfmin_qubit_membership": "(L0, L1)", "polar_max_qubit": "(L0, L1)",
    "polar_min_qubit": "(L0, L1)", "composed_lyapunov_spectrum": "(L0, L1)",
    "positive_fixed_point": "(L0, L1, max_iter=10000, tol=1e-10)",
    "lyapunov_solve": "(Z, X)",
}


@pytest.mark.parametrize("name", sorted(SIGNATURES))
def test_two_operand_signatures_are_pinned(name):
    sig = inspect.signature(getattr(fidlab, name))
    bare = sig.replace(parameters=[p.replace(annotation=p.empty) for p in sig.parameters.values()],
                       return_annotation=sig.empty)
    assert str(bare) == SIGNATURES[name]
