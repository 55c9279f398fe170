from .diff import (AdDiffResult, DiffLayers, DiffTrace, ReplayMismatchError,
                   SymbolicTrace, addiff, backward_fixpoint, concretize,
                   forward_split, initial_diff_states, non_correspondence,
                   render_inputs, summarize_action_list, summarize_action_set,
                   trace_exact)
from .encode import (BitBudgetExceededError, ProductEncoding, encode_product)
from .model import (ActivityDiagram, Configuration, Edge, Node, ObservableStep,
                    VarDecl, build_explicit_ts, initial_configs, observable_steps,
                    silent_closure, validate_ad)

__all__ = [
    "ActivityDiagram", "AdDiffResult", "BitBudgetExceededError",
    "Configuration", "DiffLayers", "DiffTrace", "Edge", "Node",
    "ObservableStep", "ProductEncoding", "ReplayMismatchError",
    "SymbolicTrace", "VarDecl", "addiff", "backward_fixpoint",
    "build_explicit_ts", "concretize", "encode_product",
    "forward_split", "initial_configs", "initial_diff_states",
    "non_correspondence", "observable_steps",
    "render_inputs", "silent_closure",
    "summarize_action_list", "summarize_action_set", "trace_exact",
    "validate_ad",
]
