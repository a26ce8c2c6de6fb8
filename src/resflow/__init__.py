"""Bucketed tile-inference engine for large rasters.

Big scenes are split into tiles, each tile is embedded and hashed into a
homogeneous bucket, a per-bucket model labels its tiles across a ticketed
worker pool, and the labeled tiles merge back into full-scene masks with
throughput and speedup accounting along the way.
"""

from .config import RunConfig, load_config
from .embedding import (
    ClusterModel,
    extract_features,
    fit_clusters,
    intra_cluster_variance,
    select_bucket_count,
)
from .executor import (
    PipelineAssets,
    RunMetrics,
    RunOutput,
    area_rate,
    compute_speedup,
    group_by_scene,
    run_pipeline,
)
from .gallery import (
    GalleryRecord,
    ImageGallery,
    ModelGallery,
    ModelGapError,
    ModelRecord,
)
from .hashing import (
    BinaryCode,
    CentroidTable,
    HashFunction,
    assign_bucket,
    bucket_centroids,
    encode,
    encode_many,
    fit_hash,
    hamming,
    load_hash,
    save_hash,
)
from .models import (
    BucketModel,
    LinearPixelModel,
    SegMetrics,
    iou_to_f1,
    load_model,
    save_model,
    seg_metrics,
    train_bucket_model,
)
from .pool import AuditReport, DevicePool, StarvationError, Ticket, audit_events
from .raster import (
    Mask,
    ReadLedger,
    SceneCatalog,
    SceneRef,
    Tile,
    TileExtent,
    load_scene_header,
    merge_tiles,
    read_window,
    scene_area_sqkm,
    tile_extents,
    write_scene,
)

__version__ = "0.1.0"

__all__ = [
    "AuditReport",
    "BinaryCode",
    "BucketModel",
    "CentroidTable",
    "ClusterModel",
    "DevicePool",
    "GalleryRecord",
    "HashFunction",
    "ImageGallery",
    "LinearPixelModel",
    "Mask",
    "ModelGallery",
    "ModelGapError",
    "ModelRecord",
    "PipelineAssets",
    "ReadLedger",
    "RunConfig",
    "RunMetrics",
    "RunOutput",
    "SceneCatalog",
    "SceneRef",
    "SegMetrics",
    "StarvationError",
    "Ticket",
    "Tile",
    "TileExtent",
    "area_rate",
    "assign_bucket",
    "audit_events",
    "bucket_centroids",
    "compute_speedup",
    "encode",
    "encode_many",
    "extract_features",
    "fit_clusters",
    "fit_hash",
    "group_by_scene",
    "hamming",
    "intra_cluster_variance",
    "iou_to_f1",
    "load_config",
    "load_hash",
    "load_model",
    "load_scene_header",
    "merge_tiles",
    "read_window",
    "run_pipeline",
    "save_hash",
    "save_model",
    "scene_area_sqkm",
    "seg_metrics",
    "select_bucket_count",
    "tile_extents",
    "train_bucket_model",
    "write_scene",
]
