"""The extraction processor (Section 4 of the paper).

"The output of the analysis process can be understood as a primitive
three-level XML structure made of a root element representing the page
cluster, a second level element for each page of the cluster and a leaf
element for each page component."

* :mod:`repro.extraction.extractor` — interprets the rule repository
  over a cluster's pages, with the Section-7 failure detection (a
  mandatory component matching nothing, a single-valued component
  matching several nodes);
* :mod:`repro.extraction.xml_writer` — the three-level XML document
  (Figure 5), including a-posteriori aggregation into nested structures
  ("users-opinion");
* :mod:`repro.extraction.schema` — the XML Schema document whose
  cardinality constraints come from optionality/multiplicity;
* :mod:`repro.extraction.postprocess` — value clean-up ("the 'min'
  suffix will have to be removed in order to get the proper data",
  Section 3.3; regular-expression selection within a text node is the
  Section-7 extension);
* :mod:`repro.extraction.pipeline` — the Figure-1 end-to-end run:
  cluster -> rules -> XML.
"""

from repro._exports import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "extractor": (
        "ExtractionFailure",
        "ExtractionProcessor",
        "ExtractionResult",
        "ExtractedPage",
    ),
    "postprocess": (
        "PostProcessor",
        "regex_extractor",
        "strip_prefix",
        "strip_suffix",
    ),
    "schema": ("generate_xml_schema",),
    "xml_writer": ("write_cluster_xml",),
    "pipeline": ("ExtractionPipeline", "PipelineResult"),
})

__all__ = [
    "ExtractionProcessor",
    "ExtractionResult",
    "ExtractedPage",
    "ExtractionFailure",
    "write_cluster_xml",
    "generate_xml_schema",
    "PostProcessor",
    "strip_suffix",
    "strip_prefix",
    "regex_extractor",
    "ExtractionPipeline",
    "PipelineResult",
]
