"""Text-only video anomaly detection over frame-level captions.

The pipeline ingests caption corpora with weak video-level labels, distills
class-conditioned four-slot knowledge (context, action, object,
environment), trains a small transformer text classifier over caption and
knowledge embeddings, and emits slot-grounded, counterfactual-aware
explanation records for each decision.
"""

from .classifier import (
    ModelParams,
    TrainConfig,
    load_model,
    model_digest,
    predict_video,
    save_model,
    train,
)
from .corpus import (
    Caption,
    CaptionCorpus,
    VideoRecord,
    group_by_class,
    load_captions,
    sample_evenly,
    save_captions,
    sentence_split,
)
from .embedding import EmbedderConfig, TokenEmbeddingSeq, cosine_similarity, embed_tokens, mean_pool
from .encoder import EncoderParams
from .errors import ModelFormatError, RemoteServiceError, TbvadError, ValidationError
from .evaluation import (
    AblationRow,
    MetricsReport,
    PipelineConfig,
    TABLE3_COMBOS,
    ablate_slots,
    accuracy,
    average_precision,
    caption_stats,
    cross_eval,
    evaluate_model,
    make_pipeline_config,
    roc_auc,
    run_pipeline,
)
from .knowledge import (
    ASPECTS,
    AspectPrompt,
    KnowledgeBase,
    SlotSummary,
    build_knowledge,
    load_knowledge,
    save_knowledge,
    summarize_aspect,
)
from .reasoning import (
    Evidence,
    ExplanationRecord,
    build_record,
    counterfactual_margins,
    generate_explanation,
    render_explanation,
    retrieve_evidence,
    slot_attention,
    slot_importance,
)
from .synthetic import SyntheticConfig, domain_config, generate_corpus

__version__ = "0.1.0"
