"""The public names of the package. A change to this list is an API
change and is stated with its reason in CHANGES.md."""

import freelip

PUBLIC = [
    "AttainmentSet", "ConcavityReport", "DecompositionReport", "EXACT", "ExcessValue",
    "FLOAT", "FamilySpec", "FiniteMetricSpace", "FreeVector", "LipFunction",
    "ModulusEntry", "ModulusTable", "Molecule", "PairVerdict", "PeakingCertificate",
    "PropertyZResult", "SamePoint", "SequenceDiagnostics", "SpaceError", "UnknownFamily",
    "ValidationError", "VertexCertificate", "Violation", "aligned_triples",
    "attainment_set", "classify", "classify_all", "classify_pair", "concavity_modulus",
    "decomposition_check", "excess", "family_at_depths", "formats", "free_norm",
    "gen_c0_counterexample", "gen_l2_nonholder", "gen_planar_spiral",
    "gen_planar_spiral_one_sided", "generators", "holder_transform", "is_vertex",
    "lipfun", "lipschitz_constant", "load_space", "mcshane_extend", "metric_segment",
    "min_excess_ratio", "molecule_vector", "pairing", "peaking_candidate",
    "peaking_margin", "phi", "polytope", "property_z", "sequence_diagnostics",
    "simplex", "space", "space_digest", "space_from_dict", "space_to_dict",
    "strict_middles", "strongly_exposed_verdict", "validate",
]


def test_public_names_pinned():
    assert sorted(freelip.__all__) == PUBLIC


def test_public_names_resolve():
    for name in freelip.__all__:
        assert getattr(freelip, name) is not None
