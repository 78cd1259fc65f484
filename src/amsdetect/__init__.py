"""Unsupervised anomaly detection for mixed-signal behavioral models.

The pipeline: behavioral simulation (``waveforms``), anomaly/fault injection
(``inject``), statistical featurization (``features``), four from-scratch
2-cluster algorithms (``cluster``), interval-mean centroid refinement
(``centroid``), windowed early detection (``earlydetect``) and a
reproducible experiment harness (``bench``, ``cli``).
"""

from .errors import (AmsDetectError, ConfigurationError, DegenerateDataError,
                     FitError, InjectionError, InputError, RefitError,
                     StatsError, WindowError)
from .waveforms import (OpampModel, SweepSpec, VrefConfig, Waveform,
                        build_kstage, default_vref_component_model,
                        simulate_opamp, simulate_vref, waveform_from_csv,
                        waveform_to_csv)
from .inject import (TEMP_RANGE, AnomalySpec, ComponentFault, FaultKind,
                     InjectionLocation, InjectionRecord, PointPeriodic,
                     PointRandom, apply_component_fault, inject_point_periodic,
                     inject_point_random, record_to_csv)
from .features import (FEATURE_NAMES, Dataset, NormalizationParams,
                       dataset_from_csv, dataset_to_csv, labels_array,
                       normalize_dataset, windowed_features)
from .cluster import (MODEL_FORMAT, MODEL_VERSION, VAR_FLOOR, ClusterModel,
                      as_matrix, assign_many, canonical_labels,
                      cluster_stats, fit_birch, fit_gmm, fit_kmeans,
                      fit_spectral, kmeans_pp_init, lloyd, load_model,
                      save_model, spectral_embedding)
from .centroid import CentroidPair, refine_model, select_centroids
from .earlydetect import (DetectionResult, detect_windowed,
                          detections_to_csv, latency_report, scan_windows)
from .bench import (ALGORITHMS, ALL_EXPERIMENTS, BLOCK_EXPERIMENTS,
                    FAULT_EXPERIMENTS, SUITE_CSV_HEADER, EvaluationReport,
                    ExperimentConfig, ResultRow, SuiteEntry, SuiteResult,
                    default_observed_signals, evaluate, fit_model,
                    generate_dataset, generate_features, load_config,
                    load_suite, permutation_accuracy, report_table,
                    report_to_csv, run_suite, suite_table, suite_to_csv)

__version__ = "0.1.0"
