"""The eight industry-representative recommendation models (Table I)."""

from repro.models.base import InputDescription, RecommendationModel
from repro.models.config import EmbeddingGroupConfig, MlpConfig, ModelInfo
from repro.models.dien import DIEN
from repro.models.din import DIN
from repro.models.dlrm import DLRM, DLRMConfig, make_rm1, make_rm2, make_rm3
from repro.models.ncf import NCF
from repro.models.wnd import MultiTaskWideAndDeep, WideAndDeep
from repro.models.variants import (
    dlrm_variant,
    embedding_dim_sweep,
    fc_width_sweep,
    lookup_sweep,
    table_count_sweep,
)
from repro.models.zoo import (
    MODEL_FACTORIES,
    MODEL_ORDER,
    build_all_models,
    build_model,
)

__all__ = [
    "RecommendationModel",
    "InputDescription",
    "EmbeddingGroupConfig",
    "MlpConfig",
    "ModelInfo",
    "NCF",
    "DLRM",
    "DLRMConfig",
    "make_rm1",
    "make_rm2",
    "make_rm3",
    "WideAndDeep",
    "MultiTaskWideAndDeep",
    "DIN",
    "DIEN",
    "MODEL_ORDER",
    "MODEL_FACTORIES",
    "build_model",
    "build_all_models",
    "dlrm_variant",
    "lookup_sweep",
    "table_count_sweep",
    "fc_width_sweep",
    "embedding_dim_sweep",
]
