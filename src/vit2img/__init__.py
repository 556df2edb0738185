"""vit2img: a ViT-encoder / convolutional-decoder image translation
micro-framework with its own autodiff core, built for verification at desk
scale rather than throughput."""

from .errors import (CheckpointError, ConfigError, ContractError, DataError,
                     DimensionError, NumericError, Vit2ImgError)
from .models import (Generator, ModelConfig, build_generator, load_checkpoint,
                     save_checkpoint)
from .tensor import Tensor, backward, no_grad

__version__ = "0.1.0"

__all__ = [
    "Tensor", "backward", "no_grad",
    "Generator", "ModelConfig", "build_generator",
    "save_checkpoint", "load_checkpoint",
    "Vit2ImgError", "DimensionError", "ConfigError", "ContractError",
    "DataError", "NumericError", "CheckpointError",
    "__version__",
]
