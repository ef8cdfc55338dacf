"""Mesh morphing toolkit.

Deforms a volume mesh from boundary displacements by inverse-distance
weighting, thins the control-point set geometrically so the weight matrix
stays small, and compresses repeated parametrized morphs into a reduced
basis with a cheap online solve.
"""

from ._kernels import backend_name, compiled_available
from .errors import (DegenerateElementError, DegenerateSampleError,
                     DegenerateSnapshotsError, DomainError,
                     IllPosedOnlineError, MeshFormatError,
                     ZeroReferenceError)
from .idw import (IdwConfig, IdwOperator, assemble, deform, interpolate,
                  read_operator, weights_at, write_operator)
from .laws import (DisplacementLaw, bend_law, evaluate, read_tabulated,
                   rotation_law, sample_domain, tabulated_law)
from .mesh import (DisplacementField, Mesh, apply_deformation,
                   coincident_pair, element_quality, generate_box_wing,
                   generate_tunnel, merge_fields, mesh_quality, read_mesh,
                   write_mesh)
from .metrics import (CSV_COLUMNS, ComparisonReport,
                      normalized_quality_index, relative_error, time_mean,
                      write_reports_csv, write_reports_json)
from .pod import (PodModel, SnapshotSet, build_online, build_pod_model,
                  build_snapshots, compute_pod, online_solve, pod_energy,
                  pseudo_inverse, read_model, write_model)
from .selection import (BaselineStats, RegionParams, SelectionParams,
                        SelectionResult, enrich, random_baseline_stats,
                        read_selection, select, select_multi, select_random,
                        write_selection)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
