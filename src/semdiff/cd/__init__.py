from .model import (Association, ClassDecl, ClassDiagram, InstanceVerdict, Link,
                    MultRange, ObjectModel, Violation, check_instance, classes_of,
                    conforms, is_instance, validate_cd, validate_om)
from .diff import cddiff_summary, enumerate_witnesses, find_witness

__all__ = [
    "Association", "ClassDecl", "ClassDiagram", "InstanceVerdict", "Link",
    "MultRange", "ObjectModel", "Violation", "check_instance", "classes_of",
    "conforms", "is_instance", "validate_cd", "validate_om",
    "cddiff_summary", "enumerate_witnesses", "find_witness",
]
