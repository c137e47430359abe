"""Adversarial robustness for class-incremental continual learning.

Small dense classifiers trained under a task stream, white-box FGSM/PGD
attacks, reservoir-sampled experience replay, and the training strategies
built on top of them (joint, ER, DER/DER++ and their adversarial variants,
including external adversarial training).
"""

__version__ = "0.1.0"

from .attacks import AttackConfig, attack, project_linf
from .datasets import Dataset, TaskStream, gen_blob_stream, gen_crescent, imbalance_subsample
from .metrics import MetricsRecord, clean_accuracy, prev_task_rate, robustness
from .nets import MLPModel, forward, init_model, one_hot, sgd_step
from .replay import ReplayBuffer
from .strategies import STRATEGIES, RunLog, TrainConfig, eat_generate, train_streams
