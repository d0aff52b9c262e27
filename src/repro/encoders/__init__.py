"""Frozen pre-trained encoder stand-in, pluggable backends and feature channels."""

from repro.encoders.backends import (
    CachedBackend,
    EncoderBackend,
    EncoderBackendError,
    available_encoder_backends,
    backend_from_spec,
    register_encoder_backend,
    spec_fingerprint,
    wrap_encoder,
)
from repro.encoders.channels import (
    FEATURE_CHANNELS,
    STOCK_CHANNELS,
    EmotionChannel,
    FeatureChannel,
    FeatureChannelError,
    PLMChannel,
    ServeRequest,
    StyleChannel,
    available_feature_channels,
    build_feature_channel,
    channels_from_specs,
    register_feature_channel,
    required_channels,
    stock_channels,
)
from repro.encoders.features import (
    EMOTION_FEATURE_DIM,
    STYLE_FEATURE_DIM,
    emotion_features,
    style_features,
)
from repro.encoders.pretrained import FrozenPretrainedEncoder

__all__ = [
    "FrozenPretrainedEncoder",
    "style_features", "emotion_features",
    "STYLE_FEATURE_DIM", "EMOTION_FEATURE_DIM",
    # backends
    "EncoderBackend", "EncoderBackendError", "CachedBackend",
    "register_encoder_backend", "available_encoder_backends",
    "backend_from_spec", "wrap_encoder", "spec_fingerprint",
    # channels
    "FeatureChannel", "FeatureChannelError", "ServeRequest",
    "PLMChannel", "StyleChannel", "EmotionChannel",
    "FEATURE_CHANNELS", "STOCK_CHANNELS",
    "register_feature_channel", "available_feature_channels",
    "build_feature_channel", "channels_from_specs", "stock_channels",
    "required_channels",
]
