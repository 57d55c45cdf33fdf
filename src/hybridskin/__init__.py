"""Procedural hybrid-skin generation and sensing simulation.

Generates multi-material skin geometry (structural dermis, conductive SC
rings, flexible covering and supports) around robot-link meshes, then
simulates the deployed skin's two sensing modalities: multizone ToF depth
frames by ray casting and self-capacitance charge counts, including the
ToF-to-SC interference noise. Analysis utilities reconstruct point clouds
from distributed frames and score contact via SNR.
"""

from .analysis import (ActivityLabel, CellLog, PointCloud, SnrReport,
                       build_cell_logs, evaluate_configurations,
                       pressure_series, reconstruct, save_ply, snr)
from .errors import (CalibrationError, CouplingGapError, DegenerateSignalError,
                     DimensionError, DomainError, InsufficientSamplesError,
                     PlacementError, SaturationError, SelfIntersectionError,
                     SkinError, UnknownSensorError)
from .geometry import (Footprint, OffsetSpec, extrude_covering,
                       generate_supports, offset_surface, self_intersections)
from .kinematics import (Joint, JointTrajectory, KinematicChain, Pose, Scene,
                         SceneObject, SensorMount, forward_kinematics,
                         mount_poses)
from .layout import (MountSpec, RingSpec, SkinAssembly, SurfaceSite,
                     compose_skin, instance_mount, instance_ring, sample_sites)
from .mesh import Material, TriMesh, validate_mesh
from .raycast import Bvh, TriangleSet
from .sc import (ElectrodeModel, InterferenceCalibration, MeasurementSpec,
                 TableModel, calibrate_interference, contact_capacitance,
                 fit_snr_table, measure_counts, schedule_streams)
from .tof import NO_TARGET, ToFSpec, capture_frame, capture_frames, zone_rays

__version__ = "0.1.0"
