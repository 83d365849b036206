"""Cost and yield modeling for chiplet and monolithic silicon systems."""

from .derive import DerivedChip, DerivedSystem, derive
from .engine import (CostReport, NodeCosts, assembly_cost, assembly_yield,
                     defect_yield, evaluate, layer_cost, nre_cost_self,
                     quality, test_cost, tested_yield)
from .errors import (ConfigError, DuplicateNameError, ValidationError,
                     XmlError)
from .model import (AssemblyProcessDef, ChipSpec, IODefinition, LayerDef,
                    Library, NetSpec, TestProcessDef, ValidatedSystem,
                    WaferProcessDef, validate_system)
from .report import report_to_csv, report_to_json
from .sweep import (SweepPlan, parse_sweep, run_sweep, sweep_columns,
                    sweep_to_csv)
from .wafer import (ReticleFit, dies_per_wafer, free_packing, grid_packing,
                    reticle_fit)
from .xmlio import (parse_library, parse_netlist, parse_system,
                    serialize_library, serialize_netlist, serialize_system)

__version__ = "0.1.0"

__all__ = [
    "AssemblyProcessDef", "ChipSpec", "ConfigError", "CostReport",
    "DerivedChip", "DerivedSystem", "DuplicateNameError",
    "IODefinition", "LayerDef", "Library", "NetSpec", "NodeCosts",
    "ReticleFit", "SweepPlan", "TestProcessDef",
    "ValidatedSystem", "ValidationError", "WaferProcessDef", "XmlError",
    "assembly_cost", "assembly_yield", "defect_yield", "derive",
    "dies_per_wafer", "evaluate", "free_packing", "grid_packing",
    "layer_cost", "nre_cost_self",
    "parse_library", "parse_netlist", "parse_sweep", "parse_system",
    "quality", "report_to_csv", "report_to_json", "reticle_fit", "run_sweep",
    "serialize_library", "serialize_netlist", "serialize_system",
    "sweep_columns", "sweep_to_csv", "test_cost", "tested_yield",
    "validate_system",
]
